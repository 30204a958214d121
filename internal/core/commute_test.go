package core

import (
	"testing"

	"repro/internal/event"
	"repro/internal/fingerprint"
	"repro/internal/lang"
	"repro/internal/sc"
)

// stepper is a backend configuration expandable one program step at a
// time (core.Config and sc.Config both are).
type stepper[C any] interface {
	Program() lang.Prog
	Fingerprint() fingerprint.FP
	AppendStepSuccessors(out []C, ps lang.ProgStep) []C
}

// stepOf returns thread tid's enabled program step.
func stepOf(t *testing.T, p lang.Prog, tid event.Thread) lang.ProgStep {
	t.Helper()
	for _, ps := range lang.ProgSteps(p) {
		if ps.T == tid {
			return ps
		}
	}
	t.Fatalf("thread %d has no enabled step", tid)
	return lang.ProgStep{}
}

// twoStepFrontier returns the canonical fingerprints reachable by
// executing one transition of thread first and then one transition of
// thread second (re-reading second's enabled step in each intermediate
// configuration).
func twoStepFrontier[C stepper[C]](t *testing.T, c C, first, second event.Thread) map[fingerprint.FP]bool {
	t.Helper()
	out := map[fingerprint.FP]bool{}
	for _, s1 := range c.AppendStepSuccessors(nil, stepOf(t, c.Program(), first)) {
		for _, s2 := range s1.AppendStepSuccessors(nil, stepOf(t, s1.Program(), second)) {
			out[s2.Fingerprint()] = true
		}
	}
	return out
}

// checkDiamond closes the diamond of every commuting pair of steps
// enabled at c, and returns how many pairs it checked.
func checkDiamond[C stepper[C]](t *testing.T, c C) int {
	t.Helper()
	steps := lang.ProgSteps(c.Program())
	pairs := 0
	for i := range steps {
		for j := range steps {
			if i == j || !lang.StepsCommute(steps[i], steps[j]) {
				continue
			}
			pairs++
			ab := twoStepFrontier(t, c, steps[i].T, steps[j].T)
			ba := twoStepFrontier(t, c, steps[j].T, steps[i].T)
			if len(ab) != len(ba) {
				t.Fatalf("threads %d,%d: diamond frontier sizes differ: %d vs %d",
					steps[i].T, steps[j].T, len(ab), len(ba))
			}
			for fp := range ab {
				if !ba[fp] {
					t.Fatalf("threads %d,%d: diamond does not close", steps[i].T, steps[j].T)
				}
			}
		}
	}
	return pairs
}

// TestStepsCommuteDiamond checks the oracle against the semantics of
// both backends: when lang.StepsCommute holds, executing the two steps
// in either order must close the diamond — the same set of canonical
// configurations, with each thread offered the same choices.
func TestStepsCommuteDiamond(t *testing.T) {
	progs := []struct {
		name string
		p    lang.Prog
		vars map[event.Var]event.Val
	}{
		{
			"disjoint-writes-and-reads",
			lang.Prog{
				lang.SeqC(lang.AssignC("x", lang.V(1)), lang.AssignRelC("f", lang.V(1))),
				lang.SeqC(lang.AssignC("a", lang.XA("g")), lang.AssignC("y", lang.V(2))),
			},
			map[event.Var]event.Val{"x": 0, "y": 0, "f": 0, "g": 0, "a": 0},
		},
		{
			"shared-reads",
			lang.Prog{
				lang.AssignC("a", lang.X("x")),
				lang.AssignC("b", lang.X("x")),
				lang.SwapC("x", 7),
			},
			map[event.Var]event.Val{"x": 0, "a": 0, "b": 0},
		},
	}
	for _, tc := range progs {
		t.Run(tc.name, func(t *testing.T) {
			rarPairs := checkDiamond(t, NewConfig(tc.p, tc.vars))
			scPairs := checkDiamond(t, sc.NewConfig(tc.p, tc.vars))
			if scPairs != rarPairs || scPairs == 0 {
				t.Fatalf("commuting pairs checked: rar %d, sc %d", rarPairs, scPairs)
			}
		})
	}
}
