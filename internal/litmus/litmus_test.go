package litmus

import (
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/axiomatic"
	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/lang"
	"repro/internal/model"
)

func TestSuiteAllPass(t *testing.T) {
	for _, tc := range Suite() {
		tc := tc
		t.Run(tc.Name, func(t *testing.T) {
			t.Parallel()
			rep := tc.Run(explore.Options{MaxEvents: 20})
			if !rep.Pass() {
				t.Fatalf("verdict: %s\nmissing allowed: %v\nreached forbidden: %v",
					rep.Summary(), rep.MissingAllowed, rep.ReachedForbidden)
			}
			if rep.Truncated {
				t.Fatalf("litmus exploration truncated: %s", rep.Summary())
			}
			if len(rep.Outcomes) == 0 {
				t.Fatal("no outcomes")
			}
		})
	}
}

func TestReportSummaryRendering(t *testing.T) {
	tc := Suite()[0]
	rep := tc.Run(explore.Options{})
	s := rep.Summary()
	if !strings.Contains(s, tc.Name) || !strings.Contains(s, "PASS") {
		t.Fatalf("summary = %q", s)
	}
}

// Cross-check: for each loop-free litmus test, the outcome set via the
// operational explorer equals the outcome set via the axiomatic
// generate-and-test procedure.
func TestSuiteOperationalAxiomaticAgree(t *testing.T) {
	for _, tc := range Suite() {
		tc := tc
		if tc.Name == "IRIW+rel+acq" && testing.Short() {
			continue
		}
		t.Run(tc.Name, func(t *testing.T) {
			t.Parallel()
			ax := axiomatic.ValidExecutions(tc.Prog, tc.Init, 40)
			op := operational(t, tc.Prog, tc.Init)
			if len(ax) != len(op) {
				t.Fatalf("|axiomatic| = %d, |operational| = %d", len(ax), len(op))
			}
			for sig := range op {
				if _, ok := ax[sig]; !ok {
					t.Fatalf("operational-only execution:\n%s", sig)
				}
			}
		})
	}
}

// Theorem 5.8 at bounded depth: the RA Peterson lock is mutually
// exclusive for every execution within the event bound.
func TestPetersonMutualExclusion(t *testing.T) {
	p, vars := Peterson()
	res := explore.Run(core.NewConfig(p, vars), explore.Options{
		MaxEvents: 14,
		Property:  MutualExclusion,
	})
	if res.Violation != nil {
		bad := res.Violation.(core.Config)
		t.Fatalf("mutual exclusion violated:\n%s\n%s", bad.Program(), bad.S)
	}
	if res.Explored < 100 {
		t.Fatalf("suspiciously small exploration: %d", res.Explored)
	}
}

// Negative control: replacing the RA swap with a plain write breaks
// mutual exclusion, and the explorer finds a witness.
func TestPetersonWeakTurnViolates(t *testing.T) {
	p, vars := PetersonWeakTurn()
	trace, found := explore.FindTrace(core.NewConfig(p, vars), explore.Options{
		MaxEvents: 14,
	}, func(c model.Config) bool { return !MutualExclusion(c) })
	if !found {
		t.Fatal("weak-turn Peterson should violate mutual exclusion")
	}
	if len(trace.Configs) < 3 {
		t.Fatalf("degenerate witness of length %d", len(trace.Configs))
	}
	last := trace.Configs[len(trace.Configs)-1]
	if MutualExclusion(last) {
		t.Fatal("witness end state not a violation")
	}
}

// Ablation: relaxing the acquire on the guard's flag read also breaks
// mutual exclusion — without the sw edge, a thread can pass the guard
// on a stale flag while holding an outdated turn view? Verify
// empirically; if safe at this bound, the test records that instead.
func TestPetersonGuardAnnotationAblation(t *testing.T) {
	p, vars := PetersonRelaxedGuard()
	_, found := explore.FindTrace(core.NewConfig(p, vars), explore.Options{
		MaxEvents: 12,
	}, func(c model.Config) bool { return !MutualExclusion(c) })
	// The paper's proof uses the acquire annotation only through the
	// Transfer rule; the mutual-exclusion argument rests on the RA
	// swap (invariants 5, 8, 9). At this bound the relaxed-guard
	// variant remains safe — record the empirical verdict.
	if found {
		t.Log("relaxed-guard Peterson violated mutual exclusion at bound 12")
	} else {
		t.Log("relaxed-guard Peterson safe up to bound 12")
	}
}

// The release annotation on the flag reset (line 6) is needed for
// correct hand-over on re-entry; at small bounds without re-entry the
// variant stays safe. Record empirically.
func TestPetersonResetAnnotationAblation(t *testing.T) {
	p, vars := PetersonRelaxedReset()
	res := explore.Run(core.NewConfig(p, vars), explore.Options{
		MaxEvents: 12,
		Property:  MutualExclusion,
	})
	if res.Violation != nil {
		t.Log("relaxed-reset Peterson violated mutual exclusion at bound 12")
	} else {
		t.Log("relaxed-reset Peterson safe up to bound 12")
	}
}

// Parallel and serial exploration agree on explored counts and
// verdicts.
func TestParallelSerialAgree(t *testing.T) {
	p, vars := Peterson()
	serial := explore.Run(core.NewConfig(p, vars), explore.Options{
		MaxEvents: 10, Workers: 1,
	})
	parallel := explore.Run(core.NewConfig(p, vars), explore.Options{
		MaxEvents: 10, Workers: 4,
	})
	if serial.Explored != parallel.Explored {
		t.Fatalf("explored: serial %d, parallel %d", serial.Explored, parallel.Explored)
	}
	if serial.Terminated != parallel.Terminated {
		t.Fatalf("terminated: serial %d, parallel %d", serial.Terminated, parallel.Terminated)
	}
}

// Every reachable Peterson state is axiomatically valid (Theorem 4.4
// on a program with loops and updates).
func TestPetersonSoundness(t *testing.T) {
	p, vars := Peterson()
	// The property runs on every worker: count atomically, and report
	// with Errorf (Fatalf must not be called off the test goroutine).
	var checked atomic.Int64
	explore.Run(core.NewConfig(p, vars), explore.Options{
		MaxEvents: 9,
		Property: func(c model.Config) bool {
			if checked.Add(1)%17 == 0 { // sample: full validation is O(n³) per state
				if v := axiomatic.FromState(c.(core.Config).S).Check(); v != nil {
					t.Errorf("reachable state invalid: %v", v)
					return false
				}
			}
			return true
		},
	})
	if checked.Load() == 0 {
		t.Fatal("nothing explored")
	}
}

func TestPetersonProgShape(t *testing.T) {
	p, vars := Peterson()
	if len(p) != 2 {
		t.Fatal("Peterson must have two threads")
	}
	if vars["turn"] != 1 || len(vars) != 3 {
		t.Fatalf("init = %v", vars)
	}
	// Thread 1 swaps turn to 2, thread 2 swaps to 1.
	if !strings.Contains(p[0].String(), "turn.swap(2)^RA") ||
		!strings.Contains(p[1].String(), "turn.swap(1)^RA") {
		t.Fatalf("swap values wrong:\n%s\n%s", p[0], p[1])
	}
	if lang.AtLabel(p[0]) != "" {
		t.Fatal("program must not start at the cs label")
	}
}

func BenchmarkPetersonExploreSerial(b *testing.B) {
	p, vars := Peterson()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := explore.Run(core.NewConfig(p, vars), explore.Options{
			MaxEvents: 9, Workers: 1, Property: MutualExclusion,
		})
		if res.Violation != nil {
			b.Fatal("violation")
		}
	}
}

func BenchmarkPetersonExploreParallel(b *testing.B) {
	p, vars := Peterson()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := explore.Run(core.NewConfig(p, vars), explore.Options{
			MaxEvents: 9, Property: MutualExclusion,
		})
		if res.Violation != nil {
			b.Fatal("violation")
		}
	}
}

func BenchmarkLitmusSuite(b *testing.B) {
	suite := Suite()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, tc := range suite {
			if rep := tc.Run(explore.Options{MaxEvents: 20}); !rep.Pass() {
				b.Fatalf("%s failed", tc.Name)
			}
		}
	}
}
