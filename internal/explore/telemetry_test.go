package explore

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// petersonRun runs the E13 Peterson workload with the given options
// and returns the result.
func petersonRun(t *testing.T, opts Options) Result {
	t.Helper()
	p, vars := petersonProg()
	res := Run(core.NewConfig(p, vars), opts)
	if res.Verdict != VerdictProved {
		t.Fatalf("Peterson run: verdict %v (stop %v)", res.Verdict, res.Stop)
	}
	return res
}

// TestTelemetryAccuracySerial pins the registry's totals against the
// Result a serial run reports — the ground truth for the parallel
// hammer below.
func TestTelemetryAccuracySerial(t *testing.T) {
	reg := telemetry.NewEngineRegistry()
	res := petersonRun(t, Options{MaxEvents: 10, Workers: 1, POR: true, Metrics: reg})
	snap := reg.Snapshot()
	if got := snap.Counter("states_admitted"); got != uint64(res.Explored) {
		t.Errorf("states_admitted = %d, Result.Explored = %d", got, res.Explored)
	}
	if got := snap.Counter("states_terminated"); got != uint64(res.Terminated) {
		t.Errorf("states_terminated = %d, Result.Terminated = %d", got, res.Terminated)
	}
	for _, name := range []string{"expansions", "successors", "dedup_hits", "por_pruned_steps"} {
		if snap.Counter(name) == 0 {
			t.Errorf("counter %q is zero after a POR Peterson run", name)
		}
	}
	// Quiescence: the frontier gauge drained to zero; serial BFS
	// admits states at their shortest depth, so the depth gauge is
	// exactly Result.Depth.
	if got := snap.Gauge("frontier"); got != 0 {
		t.Errorf("frontier gauge = %d after quiescence", got)
	}
	if got := snap.Gauge("max_depth"); got != int64(res.Depth) {
		t.Errorf("max_depth gauge = %d, Result.Depth = %d", got, res.Depth)
	}
	// Bookkeeping identity: every admission is a successor or the
	// root, and every generated successor is admitted, deduplicated,
	// or suppressed by the bound.
	succ := snap.Counter("successors")
	accounted := snap.Counter("states_admitted") - 1 + snap.Counter("dedup_hits") + snap.Counter("bound_suppressed")
	if succ != accounted {
		t.Errorf("successors = %d but admitted-1 + dedup + suppressed = %d", succ, accounted)
	}
}

// TestTelemetryAccuracyParallel hammers one registry from 8 workers
// (run under -race in CI) and checks the striped totals against the
// serial ground truth: admissions and terminations are fixpoint
// properties, identical across worker counts.
func TestTelemetryAccuracyParallel(t *testing.T) {
	serialReg := telemetry.NewEngineRegistry()
	serial := petersonRun(t, Options{MaxEvents: 10, Workers: 1, POR: true, Metrics: serialReg})
	par := telemetry.NewEngineRegistry()
	res := petersonRun(t, Options{MaxEvents: 10, Workers: 8, POR: true, Metrics: par})
	if res.Explored != serial.Explored || res.Terminated != serial.Terminated {
		t.Fatalf("parallel result drifted from serial: %+v vs %+v", res, serial)
	}
	snap := par.Snapshot()
	if got := snap.Counter("states_admitted"); got != uint64(serial.Explored) {
		t.Errorf("parallel states_admitted = %d, serial ground truth = %d", got, serial.Explored)
	}
	if got := snap.Counter("states_terminated"); got != uint64(serial.Terminated) {
		t.Errorf("parallel states_terminated = %d, serial ground truth = %d", got, serial.Terminated)
	}
	if got := snap.Gauge("frontier"); got != 0 {
		t.Errorf("frontier gauge = %d after quiescence", got)
	}
	// First discovery may happen along a non-shortest path, so the
	// depth gauge can only exceed the relaxed fixpoint depth.
	if got := snap.Gauge("max_depth"); got < int64(res.Depth) {
		t.Errorf("max_depth gauge = %d < Result.Depth = %d", got, res.Depth)
	}
}

// TestTelemetrySharedRegistryAccumulates covers the c11 litmus/c11 fuzz
// usage: one registry across several searches accumulates totals.
func TestTelemetrySharedRegistryAccumulates(t *testing.T) {
	reg := telemetry.NewEngineRegistry()
	res1 := Run(mpConfig(), Options{Workers: 1, Metrics: reg})
	after1 := reg.Total(telemetry.EngineAdmitted)
	res2 := Run(mpConfig(), Options{Workers: 4, Metrics: reg})
	after2 := reg.Total(telemetry.EngineAdmitted)
	if after1 != uint64(res1.Explored) {
		t.Errorf("first run admitted %d, Result.Explored %d", after1, res1.Explored)
	}
	if after2 != uint64(res1.Explored+res2.Explored) {
		t.Errorf("accumulated admitted %d, want %d", after2, res1.Explored+res2.Explored)
	}
}

// TestTelemetryTraceRoundTrip runs a traced search and requires the
// closed trace to be one Chrome trace_event JSON array with balanced
// search and worker spans.
func TestTelemetryTraceRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	tr := telemetry.NewTracer(&buf)
	petersonRun(t, Options{MaxEvents: 10, Workers: 2, POR: true, Tracer: tr})
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	var events []struct {
		Phase string         `json:"ph"`
		Name  string         `json:"name"`
		Args  map[string]any `json:"args"`
	}
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("trace is not a JSON array: %v", err)
	}
	open := map[string]int{}
	var names []string
	for _, ev := range events {
		names = append(names, ev.Phase+":"+ev.Name)
		switch ev.Phase {
		case "B":
			open[ev.Name]++
		case "E":
			open[ev.Name]--
		}
	}
	joined := strings.Join(names, " ")
	for _, want := range []string{"B:search", "B:worker", "E:worker", "E:search"} {
		if !strings.Contains(joined, want) {
			t.Errorf("trace lacks a %q event; got %s", want, joined)
		}
	}
	for name, n := range open {
		if n != 0 {
			t.Errorf("%d unbalanced %q spans", n, name)
		}
	}
}

// TestTelemetryZeroAllocOverhead holds the tentpole's hard line: the
// telemetry-disabled engine allocates exactly what it allocated
// before telemetry existed, and even the enabled registry path adds
// nothing on this workload (all cells are preallocated). The
// perfgate CI job additionally pins the absolute allocs/op of the
// serial E13 row against the committed baseline.
func TestTelemetryZeroAllocOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc measurement")
	}
	p, vars := petersonProg()
	// AllocsPerRun on identical options jitters by a couple of allocs
	// (map-growth and GC-assist timing), so measure each configuration
	// several times and compare the minima: a real per-state cost
	// would add hundreds of allocs on this workload (~500 states), far
	// outside the noise band. The searched path must hold no
	// sync.Pool: under -race, Pool.Put drops a random quarter of what
	// it is given, and the refills would jitter the count past the
	// band (core's observed-write scratch is a stack buffer for that
	// reason).
	measure := func(opts Options) float64 {
		best := testing.AllocsPerRun(5, func() {
			opts := opts
			Run(core.NewConfig(p, vars), opts)
		})
		for i := 0; i < 3; i++ {
			a := testing.AllocsPerRun(5, func() {
				opts := opts
				Run(core.NewConfig(p, vars), opts)
			})
			if a < best {
				best = a
			}
		}
		return best
	}
	base := Options{MaxEvents: 8, Workers: 1, POR: true}
	off := measure(base)
	withReg := base
	withReg.Metrics = telemetry.NewEngineRegistry()
	on := measure(withReg)
	if on > off+3 {
		t.Errorf("metrics enabled adds allocations: %v allocs/run with vs %v without", on, off)
	}
}
