package explore

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/fingerprint"
	"repro/internal/lang"
	"repro/internal/telemetry"
)

// writersProg is the E16 scaling client: n threads each write their
// index to x, and one reader reads x twice. It is rebuilt here because
// the benchmark harness sits above this package; keep it structurally
// identical to the root bench_test.go scalingProg.
func writersProg(n int) (lang.Prog, map[event.Var]event.Val) {
	p := make(lang.Prog, 0, n+1)
	for i := 1; i <= n; i++ {
		p = append(p, lang.AssignC("x", lang.V(event.Val(i))))
	}
	p = append(p, lang.SeqC(
		lang.AssignC("r1", lang.X("x")),
		lang.AssignC("r2", lang.X("x")),
	))
	return p, map[event.Var]event.Val{"x": 0, "r1": 0, "r2": 0}
}

// writersOpts is the E16 search of the n-writer client: every thread
// runs to completion, no reduction.
func writersOpts(n, workers int) Options {
	return Options{MaxEvents: 2*n + 5, Workers: workers}
}

// runWriters runs the n-writer search with a fresh registry.
func runWriters(n int, opts Options) (Result, telemetry.Snapshot) {
	reg := telemetry.NewEngineRegistry()
	opts.Metrics = reg
	p, vars := writersProg(n)
	return Run(core.NewConfig(p, vars), opts), reg.Snapshot()
}

// writers6Serial is the serial six-writer search, shared by the tests
// that compare against it (it is the longest search in this package).
var writers6Serial = sync.OnceValues(func() (Result, telemetry.Snapshot) {
	return runWriters(6, writersOpts(6, 1))
})

func sameFixpoint(t *testing.T, what string, got, want Result) {
	t.Helper()
	if got.Verdict != VerdictProved || got.Explored != want.Explored ||
		got.Terminated != want.Terminated || got.Depth != want.Depth || got.Frontier != 0 {
		t.Fatalf("%s: verdict=%v explored=%d terminated=%d depth=%d frontier=%d, want PROVED %d/%d/%d/0",
			what, got.Verdict, got.Explored, got.Terminated, got.Depth, got.Frontier,
			want.Explored, want.Terminated, want.Depth)
	}
}

// TestFrontierBreadthFirstSerial pins the serial search's frontier
// peak on E16 writers=6: one worker drains a FIFO, so the search is
// breadth-first and its peak is the widest BFS level plus its
// successors queued so far — a deterministic figure.
func TestFrontierBreadthFirstSerial(t *testing.T) {
	res, snap := writers6Serial()
	if res.Verdict != VerdictProved || res.Explored != 121344 {
		t.Fatalf("serial writers=6: verdict=%v explored=%d, want PROVED 121344", res.Verdict, res.Explored)
	}
	if got := snap.Gauge("frontier_peak"); got != 39196 {
		t.Errorf("serial frontier_peak = %d, want 39196", got)
	}
	if got := snap.Counter("pool_steals"); got != 0 {
		t.Errorf("serial pool_steals = %d, want 0", got)
	}
}

// TestFrontierDepthFirstParallel: with two workers each pops the
// successors of its own latest expansion first, so the frontier stays
// about as wide as the search is deep, while the fixpoint is the
// serial one.
func TestFrontierDepthFirstParallel(t *testing.T) {
	want, _ := writers6Serial()
	res, snap := runWriters(6, writersOpts(6, 2))
	sameFixpoint(t, "workers=2", res, want)
	t.Logf("workers=2: frontier_peak=%d pool_steals=%d pool_wait_ns=%d",
		snap.Gauge("frontier_peak"), snap.Counter("pool_steals"), snap.Counter("pool_wait_ns"))
	if got := snap.Gauge("frontier_peak"); got > 1000 {
		t.Errorf("workers=2 frontier_peak = %d, want <= 1000", got)
	}
	if got := snap.Gauge("frontier"); got != 0 {
		t.Errorf("frontier gauge = %d after quiescence", got)
	}
}

// TestStealFromOneDeque: every search starts with the root on worker
// 0's deque, so worker 1 has work only by stealing. Each expansion at
// depth 1 sleeps, so worker 0 is busy while its deque still holds the
// root's other successors.
func TestStealFromOneDeque(t *testing.T) {
	want, _ := runWriters(5, writersOpts(5, 1))
	opts := writersOpts(5, 2)
	opts.Hooks = hookFunc(func(_ fingerprint.FP, depth int) {
		if depth == 1 {
			time.Sleep(2 * time.Millisecond)
		}
	})
	res, snap := runWriters(5, opts)
	sameFixpoint(t, "workers=2", res, want)
	if got := snap.Counter("pool_steals"); got == 0 {
		t.Error("pool_steals = 0: the second worker never stole")
	}
	if got, exp := snap.Counter("pool_claims"), snap.Counter("expansions")+snap.Counter("stale_claims"); got != exp {
		t.Errorf("pool_claims = %d, want expansions + stale_claims = %d", got, exp)
	}
}

// TestResumeDequesBudgetCut: a two-worker search cut by MaxConfigs
// leaves items on both deques and in flight; its checkpoint holds them
// all, and resuming it — its whole frontier lands on one deque —
// reaches the uninterrupted fixpoint, serially and with two workers.
func TestResumeDequesBudgetCut(t *testing.T) {
	const n = 5
	want, _ := runWriters(n, writersOpts(n, 1))
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("resume-workers=%d", workers), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "deques.ckpt")
			cut := writersOpts(n, 2)
			cut.MaxConfigs = want.Explored / 3
			cut.CheckpointPath = path
			res, _ := runWriters(n, cut)
			if res.Stop != StopMaxConfigs || res.CheckpointErr != nil || res.Frontier == 0 {
				t.Fatalf("cut run: stop=%v frontier=%d checkpoint err=%v", res.Stop, res.Frontier, res.CheckpointErr)
			}
			got, err := Resume(path, core.Model, writersOpts(n, workers))
			if err != nil {
				t.Fatalf("resume: %v", err)
			}
			sameFixpoint(t, "resumed", got, want)
		})
	}
}
