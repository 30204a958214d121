package gen

import (
	"context"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/explore"
	"repro/internal/fingerprint"
	"repro/internal/model"
	"repro/internal/model/backends"
)

type cancelHook struct {
	after  int32
	calls  atomic.Int32
	cancel context.CancelFunc
}

func (h *cancelHook) BeforeExpand(fingerprint.FP, int) {
	if h.calls.Add(1) == h.after {
		h.cancel()
	}
}

// TestViolationsUnderRandomBudgetsReplay is the partial-result
// soundness property, over generated programs: whatever budget or
// cancellation point cuts a search, any violation it reports is a
// really-reached configuration — an unbudgeted witness search replays
// it to the same fingerprint, where the property is indeed false. And
// no budget-cut search ever reports PROVED.
func TestViolationsUnderRandomBudgetsReplay(t *testing.T) {
	rar, _ := backends.Get("rar")
	replayed := 0
	for seed := int64(1); seed <= 25; seed++ {
		prog := Generate(seed, Params{})
		test, err := prog.File.Test()
		if err != nil {
			continue
		}
		rng := rand.New(rand.NewSource(seed))
		maxEv := prog.Bound + 1

		// A property false on a random slice of the space: "fewer than
		// K events issued", violated by any sufficiently long execution.
		root := rar.New(test.Prog, test.Init)
		threshold := root.Progress() + 1 + rng.Intn(prog.Bound+1)
		prop := func(c model.Config) bool { return c.Progress() < threshold }

		opts := explore.Options{MaxEvents: maxEv, Property: prop, Workers: 1 + rng.Intn(4)}
		var cancel context.CancelFunc
		switch rng.Intn(3) {
		case 0: // state budget
			opts.MaxConfigs = 1 + rng.Intn(300)
		case 1: // cancellation at a random expansion
			var ctx context.Context
			ctx, cancel = context.WithCancel(context.Background())
			opts.Context = ctx
			opts.Hooks = &cancelHook{after: int32(1 + rng.Intn(40)), cancel: cancel}
		case 2: // wall-clock budget, sometimes brutally tight
			var ctx context.Context
			ctx, cancel = context.WithTimeout(context.Background(),
				time.Duration(1+rng.Intn(2000))*time.Microsecond)
			opts.Context = ctx
		}
		res := explore.Run(rar.New(test.Prog, test.Init), opts)
		if cancel != nil {
			cancel()
		}

		if res.Stop != explore.StopNone && res.Stop != explore.StopViolation &&
			res.Verdict == explore.VerdictProved {
			t.Fatalf("seed %d: budget-cut search (stop %v) reported PROVED", seed, res.Stop)
		}
		if res.Violation == nil {
			continue
		}
		if res.Verdict != explore.VerdictViolated {
			t.Fatalf("seed %d: violation present but verdict %v", seed, res.Verdict)
		}
		if prop(res.Violation) {
			t.Fatalf("seed %d: reported violation satisfies the property", seed)
		}
		want := res.Violation.Fingerprint()
		tr, found := explore.FindTrace(rar.New(test.Prog, test.Init),
			explore.Options{MaxEvents: maxEv},
			func(c model.Config) bool { return c.Fingerprint() == want })
		if !found {
			t.Fatalf("seed %d: violation %v not replayable without a budget", seed, want)
		}
		last := tr.Configs[len(tr.Configs)-1]
		if last.Fingerprint() != want || prop(last) {
			t.Fatalf("seed %d: replayed witness diverged", seed)
		}
		replayed++
	}
	if replayed == 0 {
		t.Fatal("no violation was ever reported — the property never bit; tighten it")
	}
}

// TestOracleDeadline: a deadline context threaded through CheckOpts
// cuts the battery without spurious failures — budget-cut audits
// compare nothing, and the refinement check degrades to truncated.
func TestOracleDeadline(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		prog := Generate(seed, Params{})
		ctx, cancel := context.WithTimeout(context.Background(), 500*time.Microsecond)
		rep := Check(prog.File, CheckOpts{
			MaxEvents: prog.Bound + 1,
			Context:   ctx,
		})
		cancel()
		if rep.Failure != nil {
			t.Fatalf("seed %d: deadline-cut battery reported a failure: %s", seed, rep.Failure)
		}
	}
}
