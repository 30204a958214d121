package explore

import (
	"testing"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/lang"
	"repro/internal/model"
)

// planOf is the POR plan the engine expands c with.
func planOf(c core.Config) lang.Plan { return c.Node().Plan(c.StepsAcyclic()) }

func mkConfig(vars map[event.Var]event.Val, coms ...lang.Com) core.Config {
	return core.NewConfig(lang.Prog(coms), vars)
}

func TestPlanPORSilentSingleton(t *testing.T) {
	// Thread 1's next step is the silent Seq advance over the finished
	// skip; thread 2 has a memory step. The silent thread is a
	// persistent singleton.
	c := mkConfig(map[event.Var]event.Val{"x": 0},
		lang.SeqC(lang.SkipC(), lang.SkipC(), lang.AssignC("x", lang.V(1))),
		lang.AssignC("x", lang.V(2)),
	)
	pl := planOf(c)
	if !pl.OK || pl.Persist != maskBit(1) {
		t.Fatalf("want silent singleton {1}, got persist=%b ok=%v", pl.Persist, pl.OK)
	}
}

func TestPlanPORFootprintSingleton(t *testing.T) {
	// Thread 1 writes x; thread 2 only ever touches y and a. Thread 1
	// is a persistent singleton by footprint disjointness.
	c := mkConfig(map[event.Var]event.Val{"x": 0, "y": 0, "a": 0},
		lang.AssignC("x", lang.V(1)),
		lang.SeqC(lang.AssignC("a", lang.X("y")), lang.AssignC("y", lang.V(2))),
	)
	pl := planOf(c)
	if !pl.OK || pl.Persist != maskBit(1) {
		t.Fatalf("want footprint singleton {1}, got persist=%b ok=%v", pl.Persist, pl.OK)
	}
}

func TestPlanPORConflictFullSet(t *testing.T) {
	// Thread 2 eventually reads x, so writing x is not independent —
	// no singleton, the full enabled set is persistent.
	c := mkConfig(map[event.Var]event.Val{"x": 0, "a": 0},
		lang.AssignC("x", lang.V(1)),
		lang.AssignC("a", lang.X("x")),
	)
	pl := planOf(c)
	if !pl.OK || pl.Persist != (maskBit(1)|maskBit(2)) {
		t.Fatalf("want full persistent set, got persist=%b ok=%v", pl.Persist, pl.OK)
	}
}

func TestPlanPORLabelVisible(t *testing.T) {
	// Thread 1 sits at a label: its (silent) step is visible and must
	// not become a reducing singleton even though it commutes with
	// everything.
	c := mkConfig(map[event.Var]event.Val{"x": 0},
		lang.LabelC("cs", lang.SkipC()),
		lang.AssignC("x", lang.V(1)),
	)
	pl := planOf(c)
	if pl.Visible&maskBit(1) == 0 {
		t.Fatal("label step not marked visible")
	}
	if pl.Persist == maskBit(1) {
		t.Fatal("visible step chosen as reducing singleton")
	}
}

func TestChildSleep(t *testing.T) {
	// Two independent writers: with the full persistent set, the
	// second-explored thread's successor must sleep the first (the
	// 1·2 order covers 2·1), and the first's successor sleeps nobody.
	c := mkConfig(map[event.Var]event.Val{"x": 0, "y": 0},
		lang.AssignC("x", lang.V(1)),
		lang.AssignC("y", lang.V(2)),
	)
	pl := planOf(c)
	// Both writers are footprint-independent, so the heuristic picks a
	// singleton; force the full set to exercise the sleep arithmetic.
	pl.Persist = maskBit(1) | maskBit(2)
	if got := childSleep(pl, c.Node().Steps(), 0, 0); got != 0 {
		t.Fatalf("first child sleep = %b, want 0", got)
	}
	if got := childSleep(pl, c.Node().Steps(), 0, 1); got != maskBit(1) {
		t.Fatalf("second child sleep = %b, want {1}", got)
	}

	// Dependent steps are filtered from the sleep set.
	d := mkConfig(map[event.Var]event.Val{"x": 0},
		lang.AssignC("x", lang.V(1)),
		lang.AssignC("x", lang.V(2)),
	)
	dl := planOf(d)
	if dl.Persist != (maskBit(1) | maskBit(2)) {
		t.Fatalf("conflicting writers: persist=%b, want full set", dl.Persist)
	}
	if got := childSleep(dl, d.Node().Steps(), 0, 1); got != 0 {
		t.Fatalf("dependent step slept: %b", got)
	}
}

// TestPORSilentDivergenceNotReduced regression-tests the ignoring
// problem: a purely silent cycle ("while (1) { skip }") must never be
// chosen as a reducing singleton, or it would postpone every other
// thread forever and hide label-visible violations the reduction
// promises to preserve.
func TestPORSilentDivergenceNotReduced(t *testing.T) {
	prog := lang.Prog{
		lang.WhileC(lang.V(1), lang.SkipC()), // diverges silently
		lang.SeqC(
			lang.AssignC("y", lang.V(1)),
			lang.LabelC("cs", lang.AssignC("y", lang.V(2))),
		),
	}
	vars := map[event.Var]event.Val{"y": 0}
	cfg := core.NewConfig(prog, vars)

	pl := planOf(cfg)
	if pl.Persist == maskBit(1) {
		t.Fatal("diverging silent thread chosen as reducing singleton")
	}

	// Thread 2 reaching its critical-section label must be observable
	// under reduction, at every worker count.
	property := func(c model.Config) bool { return lang.AtLabel(c.Program().Thread(2)) != "cs" }
	for _, workers := range []int{1, 8} {
		res := Run(cfg, Options{MaxEvents: 8, Workers: workers, POR: true, Property: property})
		if res.Violation == nil {
			t.Fatalf("workers=%d: label-visible violation hidden by the reduction", workers)
		}
	}

	// And the audit must agree with the full search end to end.
	a := Audit(cfg, Options{MaxEvents: 8, Workers: 1, Property: property})
	if n := a.Divergences(); n != 0 {
		t.Fatalf("%d divergences: %s", n, a)
	}
}

// TestPORReductionOutcomesPreserved cross-checks the outcome sets with and
// without reduction on a program whose interleavings mostly commute.
func TestPORReductionOutcomesPreserved(t *testing.T) {
	prog := lang.Prog{
		lang.SeqC(lang.AssignC("x", lang.V(1)), lang.AssignRelC("f", lang.V(1))),
		lang.SeqC(lang.AssignC("a", lang.XA("f")), lang.AssignC("b", lang.X("x"))),
		lang.AssignC("y", lang.V(3)),
	}
	vars := map[event.Var]event.Val{"x": 0, "y": 0, "f": 0, "a": 0, "b": 0}
	sum := func(c model.Config) string {
		s := c.(core.Config).S
		out := ""
		for _, x := range []event.Var{"a", "b"} {
			g, ok := s.Last(x)
			if !ok {
				continue
			}
			out += string(x) + string(rune('0'+s.Event(g).WrVal())) + ";"
		}
		return out
	}
	full := outcomes(core.NewConfig(prog, vars), Options{MaxEvents: 12, Workers: 1}, sum)
	red := outcomes(core.NewConfig(prog, vars), Options{MaxEvents: 12, Workers: 1, POR: true}, sum)
	if len(full) != len(red) {
		t.Fatalf("outcome sets differ: full=%d reduced=%d", len(full), len(red))
	}
	for k := range full {
		if !red[k] {
			t.Fatalf("outcome %q lost under reduction", k)
		}
	}
}
