// Command perfbench is the repository's benchmark. It measures the
// time a user waits for a checker verdict on four workloads, checks
// every verdict against a known answer, and in a separate traced run
// attributes the time to the library's layers. It drives the library
// only through its public functions. Build and run it from the
// repository root with run.py:
//
//	python3 perfbench/run.py --workload peterson-deep --seed 1 --seconds 20 --trace 0
//
// The run is a closed loop: one query at a time, each search using at
// most two engine workers. The last line of standard output is one
// JSON object with the number of queries attempted and failed and
// every metric by name and unit. README.md describes the workloads,
// their known answers and the metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/telemetry"
)

// setupReps is how often a run builds its inputs. The first set-up
// precedes the timed phase; the others are spread evenly through it,
// between passes, so that setup_s, their median, samples the same
// machine conditions as the passes do. (Set-ups of a few ms run on
// one CPU at a time, and the two CPUs of a shared host can differ by
// half; repetitions back to back would all land on one of them.)
const setupReps = 21

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

// traceDir holds the traced runs' spans, one JSONL file per workload
// and seed.
const traceDir = ".bench_build/traces"

func main() {
	var o options
	var trace int
	names := ""
	for _, w := range workloads {
		names += " " + w.name
	}
	flag.StringVar(&o.workload, "workload", "", "workload, one of:"+names)
	flag.Int64Var(&o.seed, "seed", 1, "seed of the workload's inputs")
	flag.Float64Var(&o.seconds, "seconds", 20, "length of the timed phase in seconds")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	flag.Parse()
	if trace != 0 && trace != 1 || o.seconds <= 0 || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}
	o.trace = trace == 1
	res, err := measure(o, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	metricNames := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		metricNames = append(metricNames, n)
	}
	sort.Strings(metricNames)
	for _, n := range metricNames {
		fmt.Printf("%-22s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	fmt.Println(string(line))
}

// measure sets the workload up, runs its timed phase and returns the
// metrics: end-to-end ones untraced, per-layer ones when o.trace.
func measure(o options, log io.Writer) (*result, error) {
	var w *workload
	for i := range workloads {
		if workloads[i].name == o.workload {
			w = &workloads[i]
		}
	}
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	r := &runner{log: log}
	var tracePath string
	if o.trace {
		if err := os.MkdirAll(traceDir, 0o755); err != nil {
			return nil, err
		}
		tracePath = filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.jsonl", w.name, o.seed))
		tr, err := telemetry.OpenTracer(tracePath)
		if err != nil {
			return nil, err
		}
		r.tr = tr
		r.l = &layers{tracer: tr}
	}
	r.w, r.seed = w, o.seed
	if err := r.setUp(); err != nil {
		r.tr.Close()
		return nil, err
	}
	r.start = time.Now()
	r.deadline = r.start.Add(time.Duration(o.seconds * float64(time.Second)))
	res := &result{}
	var err error
	if o.trace {
		res.Metrics, err = r.perLayer()
	} else {
		res.Metrics, err = r.endToEnd()
	}
	if err != nil {
		r.tr.Close()
		return nil, err
	}
	if o.trace {
		if err := r.tr.Close(); err != nil {
			return nil, fmt.Errorf("writing %s: %w", tracePath, err)
		}
		fmt.Fprintf(log, "perfbench: spans in %s (c11trace converts them for Perfetto)\n", tracePath)
		for _, m := range r.l.mismatches {
			fmt.Fprintln(log, "perfbench: probe reconciliation:", m)
		}
	}
	res.Attempted, res.Failed = r.attempted, r.failed
	res.Correct = r.failed == 0 && (r.l == nil || len(r.l.mismatches) == 0)
	return res, nil
}

// runner runs passes over a set-up suite and keeps the tallies.
type runner struct {
	w               *workload
	seed            int64
	s               *suite
	l               *layers           // nil in the untraced run
	tr              *telemetry.Tracer // nil in the untraced run
	log             io.Writer
	start, deadline time.Time // of the timed phase

	// setups, parses and gens time each set-up, its parsing and its
	// candidate generation per candidate, in seconds.
	setups, parses, gens []float64

	lat               []float64 // per-query latency, ms
	attempted, failed int
	failedPasses      int
}

// maxLoggedPasses caps the failure lines a run logs, one per pass.
const maxLoggedPasses = 10

// setUp builds the workload's inputs once more and times it. The
// first suite built is the one the passes run.
func (r *runner) setUp() error {
	r.tr.Begin("setup", -1)
	t := time.Now()
	s, err := r.w.setup(r.seed)
	d := time.Since(t).Seconds()
	r.tr.End("setup", -1, nil)
	if err != nil {
		return fmt.Errorf("%s set-up: %w", r.w.name, err)
	}
	if r.s == nil {
		r.s = s
	}
	r.setups = append(r.setups, d)
	r.parses = append(r.parses, s.parse.Seconds())
	if s.genN > 0 {
		r.gens = append(r.gens, s.gen.Seconds()/float64(s.genN))
	}
	return nil
}

// setUpIfDue runs the next set-up repetition once its evenly spaced
// slot in the timed phase has come.
func (r *runner) setUpIfDue() error {
	n := len(r.setups)
	if n >= setupReps || time.Now().Before(r.start.Add(time.Duration(n)*r.deadline.Sub(r.start)/setupReps)) {
		return nil
	}
	return r.setUp()
}

// runQuery runs one query, counting a panic as a failed query.
func runQuery(q query, l *layers) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("panic: %v", v)
		}
	}()
	return q.run(l)
}

type passStats struct{ wall, cpu float64 }

// fits reports whether work that last took d seconds, started now,
// would end before the deadline: a run starts no pass it cannot
// finish, so it ends within its --seconds once the first pass is done.
func fits(d float64, deadline time.Time) bool {
	return time.Now().Add(time.Duration(d * float64(time.Second))).Before(deadline)
}

// pass runs every query once and returns the pass's wall and CPU time.
func (r *runner) pass(kind string) passStats {
	spans := r.l != nil && r.l.probing && r.s.spanQueries
	r.tr.Begin("pass", -1)
	c0, t0 := cpuSeconds(), time.Now()
	failed := 0
	var first error
	for _, q := range r.s.queries {
		if spans {
			r.tr.Begin("query", -1)
		}
		qt := time.Now()
		err := runQuery(q, r.l)
		r.lat = append(r.lat, float64(time.Since(qt))/1e6)
		if err != nil {
			failed++
			if first == nil {
				first = fmt.Errorf("%s: %w", q.name, err)
			}
		}
		if spans {
			r.tr.End("query", -1, map[string]any{"query": q.name, "ok": err == nil})
			r.tr.Count("layers", -1, r.l.counterArgs())
		}
	}
	ps := passStats{wall: time.Since(t0).Seconds(), cpu: cpuSeconds() - c0}
	r.tr.End("pass", -1, map[string]any{"kind": kind, "queries": len(r.s.queries), "failed": failed})
	r.attempted += len(r.s.queries)
	r.failed += failed
	if first != nil && r.failedPasses < maxLoggedPasses {
		r.failedPasses++
		fmt.Fprintf(r.log, "perfbench: %d of %d queries failed; first: %v\n", failed, len(r.s.queries), first)
	}
	return ps
}

// endToEnd runs untraced passes until the deadline. A pass is the
// workload's unit of work, so its wall time is the time to the
// workload's verdicts.
func (r *runner) endToEnd() (map[string]metric, error) {
	var walls, cpus []float64
	for len(walls) == 0 || fits(walls[len(walls)-1], r.deadline) {
		p := r.pass("timed")
		walls = append(walls, p.wall)
		cpus = append(cpus, p.cpu)
		if err := r.setUpIfDue(); err != nil {
			return nil, err
		}
	}
	_, rss := rusage()
	return map[string]metric{
		"setup_s":      {median(r.setups), "s"},
		"wall_s":       {median(walls), "s"},
		"cpu_s":        {median(cpus), "s"},
		"peak_rss_mb":  {rss, "MiB"},
		"query_ms_p50": {quantile(r.lat, 0.5), "ms"},
		"query_ms_p90": {quantile(r.lat, 0.9), "ms"},
	}, nil
}

const mib = 1 << 20

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayer alternates reference and probe passes until the deadline
// and derives the per-layer metrics (see layers.go).
func (r *runner) perLayer() (map[string]metric, error) {
	l := r.l
	var refWalls, probeWalls []float64
	var rt rtCounters
	var refCPU float64
	var heapPeak uint64
	for len(probeWalls) == 0 || fits(refWalls[len(refWalls)-1]+probeWalls[len(probeWalls)-1], r.deadline) {
		l.probing = false
		hw := watchHeap(5 * time.Millisecond)
		r0 := readRuntime()
		p := r.pass("reference")
		rt = rt.add(readRuntime().sub(r0))
		heapPeak = max(heapPeak, hw.Stop())
		refWalls = append(refWalls, p.wall)
		refCPU += p.cpu

		l.probing = true
		probeWalls = append(probeWalls, r.pass("probe").wall)
		if err := r.setUpIfDue(); err != nil {
			return nil, err
		}
	}
	nRef, nProbe := float64(len(refWalls)), float64(len(probeWalls))
	e := l.eng
	perPass := func(v float64) float64 { return v / nProbe }
	est := func(a *acc, calls float64) float64 { return a.perCall() * calls / nProbe / 1e9 }

	searchS := float64(l.refSearch.ns.Load()) / 1e9 / nRef
	langEst := est(&l.step, e.stepCalls)
	coreEst := est(&l.succ[rar], e.succ[rar])
	scEst := est(&l.succ[scb], e.succ[scb])
	fpEst := est(&l.fp, e.fpCalls)
	propS := float64(l.timed[callProperty].ns.Load()) / 1e9 / nProbe
	us := func(c timedCall) float64 { return l.timed[c].perCall() / 1e3 }

	return map[string]metric{
		"explore.search_s":  {searchS, "s"},
		"lang.step_ns":      {l.step.perCall(), "ns"},
		"lang.est_s":        {langEst, "s"},
		"core.succ_ns":      {l.succ[rar].perCall(), "ns"},
		"core.est_s":        {coreEst, "s"},
		"sc.succ_ns":        {l.succ[scb].perCall(), "ns"},
		"sc.est_s":          {scEst, "s"},
		"fingerprint.ns":    {l.fp.perCall(), "ns"},
		"fingerprint.est_s": {fpEst, "s"},
		"proof.property_s":  {propS, "s"},
		"proof.calls":       {perPass(float64(l.timed[callProperty].n.Load())), "count"},
		"explore.self_s":    {searchS - langEst - coreEst - scEst - fpEst - propS, "s"},

		"explore.states":       {perPass(e.states), "count"},
		"explore.expansions":   {perPass(e.expansions), "count"},
		"explore.successors":   {perPass(e.successors), "count"},
		"explore.dedup_frac":   {ratio(e.dedupHits, e.successors-e.boundSuppressed), "ratio"},
		"explore.por_pruned":   {perPass(e.porPruned), "count"},
		"explore.requeues":     {perPass(e.requeues), "count"},
		"explore.stale_claims": {perPass(e.staleClaims), "count"},
		"probe.successors":     {perPass(l.probeSucc), "count"},

		"parser.parse_ms":     {median(r.parses) * 1e3, "ms"},
		"litmus.check_us":     {us(callCheck), "us"},
		"ds.props_us":         {us(callProps), "us"},
		"enumerate.cand_us":   {median(r.gens) * 1e6, "us"},
		"axiomatic.def42_us":  {us(callDef42), "us"},
		"axiomatic.c3_us":     {us(callC3), "us"},
		"axiomatic.replay_us": {us(callReplay), "us"},
		"catdsl.check_us":     {us(callCat), "us"},

		"runtime.gc_cpu_frac":  {ratio(rt.gcCPU, refCPU), "ratio"},
		"runtime.gc_cycles":    {rt.gcCycles / nRef, "count"},
		"runtime.alloc_mb":     {rt.allocBytes / nRef / mib, "MiB"},
		"runtime.mallocs":      {rt.allocObjects / nRef, "count"},
		"runtime.heap_peak_mb": {float64(heapPeak) / mib, "MiB"},

		"trace.overhead_frac": {median(probeWalls)/median(refWalls) - 1, "ratio"},
	}, nil
}
