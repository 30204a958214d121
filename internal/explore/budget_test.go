package explore

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fingerprint"
	"repro/internal/model"
)

// hookFunc adapts a function to the Hooks interface for tests.
type hookFunc func(fp fingerprint.FP, depth int)

func (f hookFunc) BeforeExpand(fp fingerprint.FP, depth int) { f(fp, depth) }

// sleepHook delays every expansion so that wall-clock budgets have
// something to cut.
func sleepHook(d time.Duration) Hooks {
	return hookFunc(func(fingerprint.FP, int) { time.Sleep(d) })
}

func TestMaxConfigsStop(t *testing.T) {
	full := Run(mpConfig(), Options{Workers: 1})
	res := Run(mpConfig(), Options{Workers: 1, MaxConfigs: 5})
	if res.Stop != StopMaxConfigs {
		t.Fatalf("Stop = %v, want %v", res.Stop, StopMaxConfigs)
	}
	if res.Verdict != VerdictBounded {
		t.Fatalf("Verdict = %v, want %v", res.Verdict, VerdictBounded)
	}
	if !res.Truncated {
		t.Fatal("a MaxConfigs cut must set Truncated")
	}
	if res.Explored != 5 {
		t.Fatalf("Explored = %d, want exactly the budget 5", res.Explored)
	}
	if res.Frontier == 0 {
		t.Fatal("a cut search must leave a frontier")
	}
	if res.Explored >= full.Explored {
		t.Fatalf("budgeted run explored %d >= full run's %d", res.Explored, full.Explored)
	}
}

func TestDeadlineStop(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	res := Run(mpConfig(), Options{
		Workers: 1,
		Context: ctx,
		Hooks:   sleepHook(2 * time.Millisecond),
	})
	if res.Stop != StopDeadline {
		t.Fatalf("Stop = %v, want %v", res.Stop, StopDeadline)
	}
	if res.Verdict != VerdictBounded {
		t.Fatalf("Verdict = %v, want %v", res.Verdict, VerdictBounded)
	}
	if !res.Stop.TimingDependent() {
		t.Fatal("a deadline cut must be timing-dependent")
	}
}

func TestAbsoluteDeadlineStop(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(5*time.Millisecond))
	defer cancel()
	res := Run(mpConfig(), Options{
		Workers: 1,
		Context: ctx,
		Hooks:   sleepHook(2 * time.Millisecond),
	})
	if res.Stop != StopDeadline || res.Verdict != VerdictBounded {
		t.Fatalf("Stop = %v, Verdict = %v", res.Stop, res.Verdict)
	}
}

// TestContextStopCauses pins the one mapping from a done context to a
// stop cause: context.DeadlineExceeded is StopDeadline, every other
// end is StopCancelled — however the two are nested — and either way
// the verdict is BOUNDED.
func TestContextStopCauses(t *testing.T) {
	cases := []struct {
		name string
		// ctx builds the search's context; cut, when non-nil, ends it
		// from inside the search after a few admissions.
		ctx  func() (ctx context.Context, cut, release func())
		want StopCause
	}{
		{
			name: "deadline",
			ctx: func() (context.Context, func(), func()) {
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
				return ctx, nil, cancel
			},
			want: StopDeadline,
		},
		{
			name: "explicit cancel",
			ctx: func() (context.Context, func(), func()) {
				ctx, cancel := context.WithCancel(context.Background())
				return ctx, cancel, cancel
			},
			want: StopCancelled,
		},
		{
			name: "parent cancelled before the child's deadline",
			ctx: func() (context.Context, func(), func()) {
				parent, cancelParent := context.WithCancel(context.Background())
				ctx, cancel := context.WithTimeout(parent, time.Hour)
				return ctx, cancelParent, func() { cancel(); cancelParent() }
			},
			want: StopCancelled,
		},
		{
			name: "already-expired deadline",
			ctx: func() (context.Context, func(), func()) {
				ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
				return ctx, nil, cancel
			},
			want: StopDeadline,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cut, release := tc.ctx()
			defer release()
			var calls atomic.Int32
			res := Run(mpConfig(), Options{
				Workers: 1,
				Context: ctx,
				Hooks:   sleepHook(time.Millisecond),
				Property: func(model.Config) bool {
					if calls.Add(1) == 3 && cut != nil {
						cut()
					}
					return true
				},
			})
			if res.Stop != tc.want {
				t.Fatalf("Stop = %v, want %v", res.Stop, tc.want)
			}
			if res.Verdict != VerdictBounded {
				t.Fatalf("Verdict = %v, want %v", res.Verdict, VerdictBounded)
			}
			if res.Frontier == 0 {
				t.Fatal("a context cut must leave a frontier")
			}
		})
	}
}

func TestContextCancellation(t *testing.T) {
	// Cancel mid-search, from the property hook: after a handful of
	// admissions the context is done and the monitor stops the search.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var calls atomic.Int32
	res := Run(mpConfig(), Options{
		Workers: 4,
		Context: ctx,
		Hooks:   sleepHook(time.Millisecond),
		Property: func(model.Config) bool {
			if calls.Add(1) == 3 {
				cancel()
			}
			return true
		},
	})
	if res.Stop != StopCancelled {
		t.Fatalf("Stop = %v, want %v", res.Stop, StopCancelled)
	}
	if res.Verdict != VerdictBounded {
		t.Fatalf("Verdict = %v, want %v", res.Verdict, VerdictBounded)
	}
	if res.Violation != nil {
		t.Fatal("cancellation is not a violation")
	}
}

func TestPreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := Run(mpConfig(), Options{
		Workers: 1,
		Context: ctx,
		Hooks:   sleepHook(time.Millisecond),
	})
	if res.Stop != StopCancelled || res.Verdict != VerdictBounded {
		t.Fatalf("Stop = %v, Verdict = %v", res.Stop, res.Verdict)
	}
}

func TestBudgetCutResultIsSound(t *testing.T) {
	// Coverage accounting of a partial result: every admitted
	// configuration is either fully expanded, non-expandable, or on the
	// frontier — so Explored with a non-empty Frontier and a BOUNDED
	// verdict, never a spurious PROVED.
	for _, workers := range []int{1, 8} {
		res := Run(mpConfig(), Options{Workers: workers, MaxConfigs: 7})
		if res.Verdict == VerdictProved {
			t.Fatalf("workers=%d: budget-cut search reported PROVED", workers)
		}
		if res.Explored == 0 || res.Explored > 7 {
			t.Fatalf("workers=%d: Explored = %d under budget 7", workers, res.Explored)
		}
	}
}

func TestViolationWinsOverBudget(t *testing.T) {
	// A violation found before the budget bites yields VIOLATED, and
	// the reported configuration is real: a fresh unbudgeted witness
	// search reaches the same fingerprint.
	prop := func(c model.Config) bool { return c.(core.Config).S.NumEvents() < 6 }
	res := Run(mpConfig(), Options{Workers: 1, MaxConfigs: 1 << 16, Property: prop})
	if res.Verdict != VerdictViolated || res.Stop != StopViolation {
		t.Fatalf("Verdict = %v, Stop = %v", res.Verdict, res.Stop)
	}
	want := res.Violation.Fingerprint()
	tr, found := FindTrace(mpConfig(), Options{}, func(c model.Config) bool {
		return c.Fingerprint() == want
	})
	if !found {
		t.Fatal("violation not replayable without a budget")
	}
	if got := tr.Configs[len(tr.Configs)-1].Fingerprint(); got != want {
		t.Fatalf("replayed fingerprint %v != reported %v", got, want)
	}
}

func TestPanicIsolationRoot(t *testing.T) {
	// The root expansion panics every time: the search degrades to
	// exactly the root, with the panic captured as a repro artifact and
	// the root counted on the frontier as unexpanded work.
	boom := hookFunc(func(fingerprint.FP, int) { panic("injected") })
	res := Run(mpConfig(), Options{Workers: 1, Hooks: boom})
	if res.Verdict != VerdictBounded {
		t.Fatalf("Verdict = %v, want %v", res.Verdict, VerdictBounded)
	}
	if res.Stop != StopNone {
		t.Fatalf("Stop = %v: panics degrade, they do not stop", res.Stop)
	}
	if res.Explored != 1 || res.Frontier != 1 {
		t.Fatalf("Explored = %d, Frontier = %d, want 1 and 1", res.Explored, res.Frontier)
	}
	if len(res.Panics) != 1 {
		t.Fatalf("got %d panic records, want 1", len(res.Panics))
	}
	rec := res.Panics[0]
	if rec.Err != "injected" || rec.Program == "" || rec.Stack == "" {
		t.Fatalf("panic record incomplete: %+v", rec)
	}
	// The snapshot is the repro: it restores to the panicking
	// configuration.
	c, err := core.Model.Restore(mpConfig().Program(), rec.Snapshot)
	if err != nil {
		t.Fatalf("panic snapshot does not restore: %v", err)
	}
	if c.Fingerprint() != rec.FP {
		t.Fatalf("restored fingerprint %v != recorded %v", c.Fingerprint(), rec.FP)
	}
}

func TestPanicIsolationDegradedCompletion(t *testing.T) {
	// One mid-search panic: the remaining work still completes, the
	// verdict honestly degrades to BOUNDED, and the panicked
	// configuration is on the frontier.
	full := Run(mpConfig(), Options{Workers: 1})
	var calls atomic.Int32
	boom := hookFunc(func(fingerprint.FP, int) {
		if calls.Add(1) == 4 {
			panic("injected once")
		}
	})
	res := Run(mpConfig(), Options{Workers: 1, Hooks: boom})
	if res.Verdict != VerdictBounded {
		t.Fatalf("Verdict = %v, want %v", res.Verdict, VerdictBounded)
	}
	if len(res.Panics) != 1 {
		t.Fatalf("got %d panic records, want 1", len(res.Panics))
	}
	if res.Explored <= 1 || res.Explored >= full.Explored {
		t.Fatalf("degraded run explored %d, full run %d: expected strictly between", res.Explored, full.Explored)
	}
	if res.Frontier == 0 {
		t.Fatal("the panicked configuration must stay on the frontier")
	}
}

func TestPanicIsolationParallel(t *testing.T) {
	// Panics from several workers at once: every one is isolated with
	// a snapshot that restores to the panicking configuration, no
	// spurious PROVED, and the engine still quiesces. Faults degrade
	// coverage, never correctness: under a property that holds, the
	// degraded run reports no violation.
	var calls atomic.Int32
	boom := hookFunc(func(fingerprint.FP, int) {
		if calls.Add(1)%5 == 0 {
			panic("periodic injected panic")
		}
	})
	for _, prop := range []func(model.Config) bool{nil, func(model.Config) bool { return true }} {
		res := Run(mpConfig(), Options{Workers: 8, Hooks: boom, Property: prop})
		if len(res.Panics) == 0 {
			t.Fatal("expected at least one panic record")
		}
		if res.Verdict == VerdictProved {
			t.Fatal("degraded run reported PROVED")
		}
		if res.Violation != nil {
			t.Fatalf("panics invented a violation: %+v", res)
		}
		if res.Explored == 0 {
			t.Fatal("degraded run explored nothing")
		}
		for _, rec := range res.Panics {
			c, err := core.Model.Restore(mpConfig().Program(), rec.Snapshot)
			if err != nil {
				t.Fatalf("panic snapshot does not restore: %v", err)
			}
			if c.Fingerprint() != rec.FP {
				t.Fatalf("restored fingerprint %v != recorded %v", c.Fingerprint(), rec.FP)
			}
		}
	}
}

func TestCompletedRunIsProved(t *testing.T) {
	// Sanity for the other side of the tri-state: no budget, no panic,
	// no violation → PROVED with an empty frontier.
	res := Run(mpConfig(), Options{Workers: 1})
	if res.Verdict != VerdictProved || res.Stop != StopNone {
		t.Fatalf("Verdict = %v, Stop = %v", res.Verdict, res.Stop)
	}
	if res.Frontier != 0 {
		t.Fatalf("Frontier = %d at quiescence", res.Frontier)
	}
}

func TestGenerousBudgetsDoNotCut(t *testing.T) {
	// Budgets far above what the search needs must not change the
	// result.
	full := Run(mpConfig(), Options{Workers: 1})
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	res := Run(mpConfig(), Options{
		Workers:    1,
		MaxConfigs: 1 << 20,
		Context:    ctx,
	})
	if res.Verdict != VerdictProved || res.Stop != StopNone {
		t.Fatalf("Verdict = %v, Stop = %v", res.Verdict, res.Stop)
	}
	if res.Explored != full.Explored || res.Terminated != full.Terminated || res.Depth != full.Depth {
		t.Fatalf("generous budgets changed the result: %+v vs %+v", res, full)
	}
}

func TestStopCauseStrings(t *testing.T) {
	for c, want := range map[StopCause]string{
		StopNone: "none", StopViolation: "violation", StopMaxConfigs: "max-configs",
		StopDeadline: "deadline", StopCancelled: "cancelled",
	} {
		if c.String() != want {
			t.Fatalf("%d.String() = %q, want %q", c, c.String(), want)
		}
	}
	for v, want := range map[Verdict]string{
		VerdictProved: "PROVED", VerdictViolated: "VIOLATED", VerdictBounded: "BOUNDED",
	} {
		if v.String() != want {
			t.Fatalf("%d.String() = %q, want %q", v, v.String(), want)
		}
	}
}
