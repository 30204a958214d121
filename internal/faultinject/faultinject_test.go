package faultinject

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/explore"
	"repro/internal/lang"
	"repro/internal/model"
)

// workload is a small RAR message-passing configuration (a few dozen
// states), big enough that injected faults land mid-search.
func workload() core.Config {
	p := lang.Prog{
		lang.SeqC(lang.AssignC("d", lang.V(5)), lang.AssignRelC("f", lang.V(1))),
		lang.SeqC(lang.AssignC("a", lang.XA("f")), lang.AssignC("b", lang.X("d"))),
	}
	return core.NewConfig(p, map[event.Var]event.Val{"d": 0, "f": 0, "a": 0, "b": 0})
}

func TestInjectorImplementsHooks(t *testing.T) {
	var _ explore.Hooks = New(Spec{})
}

func TestDecisionsAreDeterministic(t *testing.T) {
	// Same seed → same faulted subset, independent of schedule: two
	// serial runs agree exactly, and a panic record's fingerprint
	// re-panics on every schedule.
	spec := Spec{Seed: 7, PanicEvery: 4}
	a := explore.Run(workload(), explore.Options{Workers: 1, Hooks: New(spec)})
	b := explore.Run(workload(), explore.Options{Workers: 1, Hooks: New(spec)})
	if len(a.Panics) == 0 {
		t.Fatal("spec injected nothing; lower PanicEvery")
	}
	if a.Explored != b.Explored || len(a.Panics) != len(b.Panics) {
		t.Fatalf("serial runs diverged: %d/%d panics, %d/%d explored",
			len(a.Panics), len(b.Panics), a.Explored, b.Explored)
	}
	for i := range a.Panics {
		if a.Panics[i].FP != b.Panics[i].FP {
			t.Fatalf("panic %d hit %v then %v", i, a.Panics[i].FP, b.Panics[i].FP)
		}
	}
	// A different seed faults a different subset (on this workload).
	c := explore.Run(workload(), explore.Options{Workers: 1, Hooks: New(Spec{Seed: 8, PanicEvery: 4})})
	same := len(c.Panics) == len(a.Panics)
	if same {
		for i := range c.Panics {
			if c.Panics[i].FP != a.Panics[i].FP {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("seeds 7 and 8 faulted the identical subset — hash ignores the seed?")
	}
}

func TestPanicDegradation(t *testing.T) {
	// Injected panics must degrade the verdict — never a spurious
	// PROVED — while the rest of the search completes, serially and in
	// parallel.
	for _, workers := range []int{1, 8} {
		inj := New(Spec{Seed: 1, PanicEvery: 6})
		res := explore.Run(workload(), explore.Options{Workers: workers, Hooks: inj})
		if inj.Panics() == 0 {
			t.Fatalf("workers=%d: no panic fired", workers)
		}
		if res.Verdict != explore.VerdictBounded {
			t.Fatalf("workers=%d: Verdict = %v, want %v", workers, res.Verdict, explore.VerdictBounded)
		}
		if len(res.Panics) == 0 || res.Frontier == 0 {
			t.Fatalf("workers=%d: %d records, frontier %d", workers, len(res.Panics), res.Frontier)
		}
		if res.Explored <= len(res.Panics) {
			t.Fatalf("workers=%d: search did not continue past the faults (explored %d)", workers, res.Explored)
		}
		for _, rec := range res.Panics {
			if !strings.Contains(rec.Err, "faultinject: injected panic") {
				t.Fatalf("workers=%d: record lost the injection identity: %q", workers, rec.Err)
			}
			c, err := core.Model.Restore(rec.Snapshot)
			if err != nil {
				t.Fatalf("workers=%d: repro snapshot broken: %v", workers, err)
			}
			if c.Fingerprint() != rec.FP {
				t.Fatalf("workers=%d: snapshot drifted", workers)
			}
		}
	}
}

func TestLatencyInjectionTriggersDeadline(t *testing.T) {
	inj := New(Spec{Seed: 3, LatencyEvery: 1, Latency: 2 * time.Millisecond})
	ctx, cancel := context.WithTimeout(context.Background(), 8*time.Millisecond)
	defer cancel()
	res := explore.Run(workload(), explore.Options{
		Workers: 1,
		Context: ctx,
		Hooks:   inj,
	})
	if inj.Sleeps() == 0 {
		t.Fatal("no latency injected")
	}
	if res.Stop != explore.StopDeadline || res.Verdict != explore.VerdictBounded {
		t.Fatalf("Stop = %v, Verdict = %v", res.Stop, res.Verdict)
	}
}

func TestAllocInjectionTriggersMemoryBudget(t *testing.T) {
	inj := New(Spec{Seed: 4, AllocEvery: 1, AllocBytes: 1 << 20, LatencyEvery: 1, Latency: time.Millisecond})
	defer inj.Release()
	res := explore.Run(workload(), explore.Options{
		Workers:     1,
		MaxMemBytes: 1 << 20, // below even one ballast slot
		MemPoll:     time.Millisecond,
		Hooks:       inj,
	})
	if inj.Allocs() == 0 {
		t.Fatal("no allocation injected")
	}
	if res.Stop != explore.StopMemory || res.Verdict != explore.VerdictBounded {
		t.Fatalf("Stop = %v, Verdict = %v", res.Stop, res.Verdict)
	}
}

func TestInjectionDoesNotInventViolations(t *testing.T) {
	// Faults degrade coverage, never correctness: with a property that
	// genuinely holds, an injected run reports BOUNDED (or PROVED when
	// nothing fired), never VIOLATED.
	inj := New(Spec{Seed: 5, PanicEvery: 5})
	res := explore.Run(workload(), explore.Options{
		Workers:  4,
		Hooks:    inj,
		Property: func(model.Config) bool { return true },
	})
	if res.Verdict == explore.VerdictViolated || res.Violation != nil {
		t.Fatalf("injection invented a violation: %+v", res)
	}
	if inj.Panics() > 0 && res.Verdict == explore.VerdictProved {
		t.Fatal("degraded run reported PROVED")
	}
}

func TestResumeAfterInjectedPanics(t *testing.T) {
	// The end-to-end degradation story: an injected run checkpoints,
	// and a resume without the injector finishes the search cleanly at
	// the uninterrupted fixpoint.
	want := explore.Run(workload(), explore.Options{Workers: 1})
	path := t.TempDir() + "/faulted.ckpt"
	res := explore.Run(workload(), explore.Options{
		Workers:        1,
		Hooks:          New(Spec{Seed: 1, PanicEvery: 6}),
		CheckpointPath: path,
	})
	if len(res.Panics) == 0 || res.CheckpointErr != nil {
		t.Fatalf("faulted run: %d panics, checkpoint err %v", len(res.Panics), res.CheckpointErr)
	}
	got, err := explore.Resume(path, core.Model, explore.Options{Workers: 1})
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if got.Verdict != explore.VerdictProved || got.Explored != want.Explored ||
		got.Terminated != want.Terminated || got.Depth != want.Depth {
		t.Fatalf("post-fault resume did not reach the clean fixpoint: %+v vs %+v", got, want)
	}
}
