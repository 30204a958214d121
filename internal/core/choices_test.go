package core_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/ds"
	"repro/internal/event"
	"repro/internal/explore"
	"repro/internal/gen"
	"repro/internal/lang"
	"repro/internal/litmus"
)

// checkChoices enumerates every enabled step of c and checks each
// choice against the successor it describes: the predicted fingerprint
// is the built configuration's Fingerprint, the choice's Progress is
// the built one's, and AppendStepSuccessors returns exactly the built
// choices, in enumeration order.
func checkChoices(c core.Config) error {
	for _, ps := range c.Node().Steps() {
		chs := c.AppendStepChoices(nil, ps)
		succ := c.AppendStepSuccessors(nil, ps)
		if len(succ) != len(chs) {
			return fmt.Errorf("thread %d: %d choices, %d successors", ps.T, len(chs), len(succ))
		}
		for i, ch := range chs {
			b := c.Build(ps, ch)
			if fp := b.Fingerprint(); fp != ch.FP {
				return fmt.Errorf("thread %d choice %d: predicted %x, built %x\n%s", ps.T, i, ch.FP, fp, c.S)
			}
			if b.Progress() != ch.Progress {
				return fmt.Errorf("thread %d choice %d: progress %d, built %d", ps.T, i, ch.Progress, b.Progress())
			}
			if b.Key() != succ[i].Key() {
				return fmt.Errorf("thread %d choice %d: AppendStepSuccessors disagrees with Build", ps.T, i)
			}
		}
	}
	return nil
}

// checkReachable runs checkChoices at every configuration a serial,
// unreduced search of (p, vars) to the given bound admits.
func checkReachable(t *testing.T, name string, p lang.Prog, vars map[event.Var]event.Val, bound int) {
	t.Helper()
	var first error
	res := explore.Run(core.NewConfig(p, vars), explore.Options{
		MaxEvents: bound,
		Workers:   1,
		TypedProperty: func(c core.Config) bool {
			if first == nil {
				first = checkChoices(c)
			}
			return true
		},
	})
	if first != nil {
		t.Fatalf("%s: %v", name, first)
	}
	if res.Explored < 2 {
		t.Fatalf("%s: explored only %d configurations", name, res.Explored)
	}
}

// TestChoicesPredictBuiltSuccessors covers the catalog, the DS
// scenarios and fixed-seed generated programs at small bounds.
func TestChoicesPredictBuiltSuccessors(t *testing.T) {
	const bound = 7
	for _, lt := range litmus.Suite() {
		checkReachable(t, lt.Name, lt.Prog, lt.Init, bound)
	}
	for _, s := range ds.Suite() {
		checkReachable(t, s.Test.Name, s.Test.Prog, s.Test.Init, bound)
	}
	for seed := int64(1); seed <= 12; seed++ {
		g := gen.Generate(seed, gen.Params{})
		lt, err := g.File.Test()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		checkReachable(t, fmt.Sprintf("gen seed %d", seed), lt.Prog, lt.Init, bound)
	}
}
