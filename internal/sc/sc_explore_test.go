package sc_test

// Engine-driven tests live in an external test package: the explorer
// imports this package for its monomorphised instantiation, so an
// in-package test importing the explorer would be an import cycle.

import (
	"testing"

	"repro/internal/event"
	"repro/internal/explore"
	"repro/internal/lang"
	"repro/internal/litmus"
	"repro/internal/sc"

	coremodel "repro/internal/core"
)

func TestUpdateAtomicUnderSC(t *testing.T) {
	tc := &litmus.Test{
		Prog:    lang.Prog{lang.SwapC("t", 1), lang.SwapC("t", 2)},
		Init:    map[event.Var]event.Val{"t": 0},
		Observe: []event.Var{"t"},
	}
	out := tc.RunModel(sc.Model, explore.Options{}).Outcomes
	if len(out) != 2 || !out["t=1;"] || !out["t=2;"] {
		t.Fatalf("outcomes = %v", out)
	}
}

// SC forbids the store-buffering weak outcome that RA allows — the
// defining difference between the two plugged-in models.
func TestSBDiffersBetweenSCAndRA(t *testing.T) {
	tc := &litmus.Test{
		Prog: lang.Prog{
			lang.SeqC(lang.AssignRelC("x", lang.V(1)), lang.AssignC("a", lang.XA("y"))),
			lang.SeqC(lang.AssignRelC("y", lang.V(1)), lang.AssignC("b", lang.XA("x"))),
		},
		Init:    map[event.Var]event.Val{"x": 0, "y": 0, "a": 0, "b": 0},
		Observe: []event.Var{"a", "b"},
	}
	c := tc.Compare(coremodel.Model, sc.Model, explore.Options{MaxEvents: 20})
	if c.SC.Outcomes["a=0;b=0;"] {
		t.Fatal("SC allowed the SB weak outcome")
	}
	if !c.SC.Outcomes["a=1;b=1;"] {
		t.Fatalf("SC outcomes degenerate: %v", c.SC.Outcomes)
	}
	if len(c.RAOnly) != 1 || c.RAOnly[0] != "a=0;b=0;" {
		t.Fatalf("RA-only outcomes = %v, want the SB weak outcome", c.RAOnly)
	}
	// SC outcomes are a subset of RA outcomes.
	if len(c.SCOnly) != 0 {
		t.Fatalf("SC outcomes %v not reachable under RA", c.SCOnly)
	}
}

// Every litmus test's SC outcome set is contained in its RA outcome
// set (SC refines RA), and the explicitly forbidden RA outcomes are
// absent under SC too — via litmus.Test.Compare, so this also
// exercises the differential mode end to end.
func TestSCRefinesRAOnSuite(t *testing.T) {
	for _, tc := range litmus.Suite() {
		tc := tc
		t.Run(tc.Name, func(t *testing.T) {
			t.Parallel()
			c := tc.Compare(coremodel.Model, sc.Model, explore.Options{MaxEvents: 20})
			if len(c.SCOnly) != 0 {
				t.Fatalf("SC-only outcomes break refinement: %v", c.SCOnly)
			}
			for _, o := range tc.Forbidden {
				if c.SC.Outcomes[o.Key(tc.Observe)] {
					t.Fatal("forbidden outcome reachable under SC")
				}
			}
		})
	}
}

// Peterson under SC: trivially mutually exclusive, via the same
// engine and property the RA verification uses (sanity check that the
// property is about the algorithm, not an artifact of the model).
func TestPetersonSafeUnderSC(t *testing.T) {
	p, vars := litmus.Peterson()
	for _, workers := range []int{1, 8} {
		res := explore.Run(sc.NewConfig(p, vars), explore.Options{
			Workers:  workers,
			Property: litmus.MutualExclusion,
		})
		if res.Violation != nil {
			t.Fatalf("workers=%d: mutual exclusion violated under SC", workers)
		}
		if res.Truncated {
			t.Fatalf("workers=%d: Peterson's SC state space is finite, search truncated", workers)
		}
		if res.Explored == 0 || res.Terminated == 0 {
			t.Fatalf("workers=%d: degenerate exploration %+v", workers, res)
		}
	}
}

func BenchmarkSCOutcomes(b *testing.B) {
	tc := &litmus.Test{
		Prog: lang.Prog{
			lang.SeqC(lang.AssignC("x", lang.V(1)), lang.AssignC("a", lang.X("y"))),
			lang.SeqC(lang.AssignC("y", lang.V(1)), lang.AssignC("b", lang.X("x"))),
		},
		Init:    map[event.Var]event.Val{"x": 0, "y": 0, "a": 0, "b": 0},
		Observe: []event.Var{"a", "b"},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if len(tc.RunModel(sc.Model, explore.Options{}).Outcomes) == 0 {
			b.Fatal("no outcomes")
		}
	}
}

// TestCounterLoopStopsAtMaxConfigs pins that an SC state space is not
// finite in general: a counter loop reaches a new store each
// iteration, and since Progress is constantly zero only MaxConfigs
// ends the search, which is then BOUNDED and truncated; the event
// bound of 1 does not act under SC.
func TestCounterLoopStopsAtMaxConfigs(t *testing.T) {
	p := lang.Prog{lang.WhileC(lang.Ne(lang.X("x"), lang.V(-1)), lang.AssignC("x", lang.Add(lang.X("x"), lang.V(1))))}
	for _, workers := range []int{1, 2} {
		res := explore.Run(sc.NewConfig(p, map[event.Var]event.Val{"x": 0}), explore.Options{
			MaxEvents:  1,
			MaxConfigs: 200,
			Workers:    workers,
		})
		if res.Stop != explore.StopMaxConfigs || res.Verdict != explore.VerdictBounded || !res.Truncated {
			t.Fatalf("workers=%d: stop %v, verdict %v, truncated %v; want max-configs, BOUNDED, truncated",
				workers, res.Stop, res.Verdict, res.Truncated)
		}
		if res.Explored != 200 || res.Terminated != 0 {
			t.Fatalf("workers=%d: explored %d, terminated %d; want 200 and 0", workers, res.Explored, res.Terminated)
		}
	}
}
