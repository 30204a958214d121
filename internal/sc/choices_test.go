package sc_test

import (
	"fmt"
	"testing"

	"repro/internal/ds"
	"repro/internal/event"
	"repro/internal/explore"
	"repro/internal/gen"
	"repro/internal/lang"
	"repro/internal/litmus"
	"repro/internal/sc"
)

// checkChoices enumerates every enabled step of c and checks each
// choice against the successor it describes: the predicted fingerprint
// (from the store-hash delta) is the built configuration's
// Fingerprint, and AppendStepSuccessors returns exactly the built
// choices, in enumeration order.
func checkChoices(c sc.Config) error {
	for _, ps := range c.Node().Steps() {
		chs := c.AppendStepChoices(nil, ps)
		succ := c.AppendStepSuccessors(nil, ps)
		if len(succ) != len(chs) {
			return fmt.Errorf("thread %d: %d choices, %d successors", ps.T, len(chs), len(succ))
		}
		for i, ch := range chs {
			b := c.Build(ps, ch)
			if fp := b.Fingerprint(); fp != ch.FP {
				return fmt.Errorf("thread %d choice %d: predicted %x, built %x (%s)", ps.T, i, ch.FP, fp, c.Key())
			}
			if b.Key() != succ[i].Key() {
				return fmt.Errorf("thread %d choice %d: AppendStepSuccessors disagrees with Build", ps.T, i)
			}
		}
	}
	return nil
}

// checkReachable runs checkChoices at every configuration a serial,
// unreduced search of (p, vars) admits (the catalog's SC spaces are
// finite).
func checkReachable(t *testing.T, name string, p lang.Prog, vars map[event.Var]event.Val) {
	t.Helper()
	var first error
	res := explore.Run(sc.NewConfig(p, vars), explore.Options{
		Workers: 1,
		TypedProperty: func(c sc.Config) bool {
			if first == nil {
				first = checkChoices(c)
			}
			return true
		},
	})
	if first != nil {
		t.Fatalf("%s: %v", name, first)
	}
	if res.Explored < 2 || res.Truncated {
		t.Fatalf("%s: explored %d configurations (truncated %v)", name, res.Explored, res.Truncated)
	}
}

// TestChoicesPredictBuiltSuccessors covers the catalog, the DS
// scenarios and fixed-seed generated programs.
func TestChoicesPredictBuiltSuccessors(t *testing.T) {
	for _, lt := range litmus.Suite() {
		checkReachable(t, lt.Name, lt.Prog, lt.Init)
	}
	for _, s := range ds.Suite() {
		checkReachable(t, s.Test.Name, s.Test.Prog, s.Test.Init)
	}
	for seed := int64(1); seed <= 12; seed++ {
		lt, err := gen.Generate(seed, gen.Params{}).File.Test()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		checkReachable(t, fmt.Sprintf("gen seed %d", seed), lt.Prog, lt.Init)
	}
}
