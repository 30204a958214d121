package proof

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/explore"
	"repro/internal/lang"
	"repro/internal/litmus"
	"repro/internal/relation"
)

// This file checks the compiled proof vocabulary against an oracle
// that evaluates the assertions from their definitions: σ.last(x) as
// the write to x with no mo successor, the hb cone from the hb
// relation, update-only by scanning the events and the program counter
// by walking the residual term. It shares no memo, variable id or
// index with the compiled evaluator.

// defs evaluates the vocabulary on one configuration from first
// principles.
type defs struct {
	c      core.Config
	evs    []event.Event
	mo, hb relation.Rel
}

func newDefs(c core.Config) *defs {
	return &defs{c: c, evs: c.S.Events(), mo: c.S.MO(), hb: c.S.HB()}
}

// last returns σ.last(x): the write to x with no mo successor.
func (d *defs) last(x event.Var) (event.Tag, bool) {
	writesX := func(e event.Event) bool { return e.IsWrite() && e.Var() == x }
	for _, w := range d.evs {
		if writesX(w) && !slices.ContainsFunc(d.evs, func(v event.Event) bool {
			return writesX(v) && d.mo.Has(int(w.Tag), int(v.Tag))
		}) {
			return w.Tag, true
		}
	}
	return 0, false
}

// inCone reports g ∈ σ.hbc(t) = I_σ ∪ {e | ∃e'. tid(e') = t ∧ (e, e') ∈ hb?}.
func (d *defs) inCone(t event.Thread, g event.Tag) bool {
	return d.evs[g].IsInit() || slices.ContainsFunc(d.evs, func(e event.Event) bool {
		return e.TID == t && (e.Tag == g || d.hb.Has(int(g), int(e.Tag)))
	})
}

func (d *defs) dv(t event.Thread, x event.Var, v event.Val) bool {
	l, ok := d.last(x)
	return ok && d.evs[l].WrVal() == v && d.inCone(t, l)
}

func (d *defs) vo(x, y event.Var) bool {
	lx, okx := d.last(x)
	ly, oky := d.last(y)
	return okx && oky && d.hb.Has(int(lx), int(ly))
}

func (d *defs) updateOnly(x event.Var) bool {
	return !slices.ContainsFunc(d.evs, func(e event.Event) bool {
		return e.IsWrite() && e.Var() == x && !e.IsUpdate() && !e.IsInit()
	})
}

// pc walks thread t's residual command, with no memo.
func (d *defs) pc(t event.Thread) int { return PC(d.c.Program().Thread(t)) }

// oracleViolations returns the IDs of the invariants (4)–(10) of
// Lemma D.1 that fail on c, written out from §5.2.
func oracleViolations(c core.Config) []int {
	d := newDefs(c)
	flag := func(t event.Thread) event.Var { return event.Var(fmt.Sprintf("flag%d", t)) }
	in := func(pc int, lines ...int) bool { return slices.Contains(lines, pc) }
	forAll := func(p func(t, th event.Thread) bool) bool { return p(1, 2) && p(2, 1) }
	holds := []bool{
		4: d.updateOnly("turn"),
		5: d.dv(1, "turn", 2) || d.dv(2, "turn", 1),
		6: forAll(func(t, _ event.Thread) bool {
			return !in(d.pc(t), 3, 4, 5, 6) || d.dv(t, flag(t), event.True)
		}),
		7: forAll(func(t, _ event.Thread) bool {
			return !in(d.pc(t), 4, 5, 6) || d.vo(flag(t), "turn")
		}),
		8: forAll(func(t, th event.Thread) bool {
			return !in(d.pc(t), 4, 5, 6) || !in(d.pc(th), 4, 5, 6) ||
				d.dv(t, flag(th), event.True) || d.dv(th, "turn", event.Val(t))
		}),
		9: forAll(func(t, th event.Thread) bool {
			return d.pc(t) != 5 || !in(d.pc(th), 4, 5, 6) || d.dv(th, "turn", event.Val(t))
		}),
		10: forAll(func(t, _ event.Thread) bool {
			return d.pc(t) != 2 || d.dv(t, flag(t), event.False)
		}),
	}
	var bad []int
	for id := 4; id <= 10; id++ {
		if !holds[id] {
			bad = append(bad, id)
		}
	}
	return bad
}

// TestPetersonVocabularyOracle checks CheckPetersonInvariants against
// the oracle on every reachable configuration of the four Peterson
// variants at bound 40 without POR, under one and two workers. Only
// weak-turn violates an invariant.
func TestPetersonVocabularyOracle(t *testing.T) {
	variants := []struct {
		name  string
		build func() (lang.Prog, map[event.Var]event.Val)
	}{
		{"ra", litmus.Peterson},
		{"weak-turn", litmus.PetersonWeakTurn},
		{"relaxed-guard", litmus.PetersonRelaxedGuard},
		{"relaxed-reset", litmus.PetersonRelaxedReset},
	}
	for _, workers := range []int{1, 2} {
		explored := 0
		for _, v := range variants {
			var (
				checked, violating, mismatches atomic.Int64
				once                           sync.Once
				first                          string
			)
			p, vars := v.build()
			res := explore.Run(core.NewConfig(p, vars), explore.Options{
				MaxEvents: 40,
				Workers:   workers,
				TypedProperty: func(c core.Config) bool {
					got, want := CheckPetersonInvariants(c), oracleViolations(c)
					checked.Add(1)
					if len(want) > 0 {
						violating.Add(1)
					}
					if !slices.Equal(got, want) {
						mismatches.Add(1)
						once.Do(func() { first = fmt.Sprintf("compiled %v, oracle %v at\n%s%s", got, want, c.Program(), c.S) })
					}
					return true
				},
			})
			if n := mismatches.Load(); n > 0 {
				t.Errorf("%s, %d workers: %d of %d configurations disagree; first: %s",
					v.name, workers, n, checked.Load(), first)
			}
			if (violating.Load() > 0) != (v.name == "weak-turn") {
				t.Errorf("%s, %d workers: %d violating configurations", v.name, workers, violating.Load())
			}
			t.Logf("%s, %d workers: %d configurations checked, %d violating", v.name, workers, checked.Load(), violating.Load())
			explored += res.Explored
		}
		if explored != 73754 {
			t.Errorf("%d workers: %d configurations explored, want 73754", workers, explored)
		}
	}
}

// reachable returns the configurations a serial search admits.
func reachable(p lang.Prog, vars map[event.Var]event.Val, bound int) []core.Config {
	var out []core.Config
	explore.Run(core.NewConfig(p, vars), explore.Options{
		MaxEvents: bound,
		Workers:   1,
		TypedProperty: func(c core.Config) bool {
			out = append(out, c)
			return true
		},
	})
	return out
}

// failures returns the indexes of the annotations of chk that fail on
// c, evaluated by the compiled evaluator.
func failures(chk *checker, c core.Config) []int {
	var out []int
	n := len(chk.anns)
	for i := chk.check(c, 0, n); i < n; i = chk.check(c, i+1, n) {
		out = append(out, i)
	}
	return out
}

// TestVocabularyCachesInterleaved evaluates two annotation lists over
// three programs with different variable tables, interleaving the
// configurations so that every evaluation meets a different table and
// a different program than the one before: an id resolved in a stale
// table, or a program counter memoised for the wrong program, makes
// the compiled result differ from the oracle's.
func TestVocabularyCachesInterleaved(t *testing.T) {
	p, vars := litmus.Peterson()
	// The same lock with one more variable, sorted first: every
	// Peterson variable's id moves up by one.
	shifted := map[event.Var]event.Val{"a": 0}
	for x, v := range vars {
		shifted[x] = v
	}
	mp := lang.Prog{
		lang.SeqC(
			lang.AssignC("d", lang.V(5)),
			lang.AssignRelC("f", lang.V(1)),
		),
		lang.SeqC(
			lang.WhileC(lang.Eq(lang.XA("f"), lang.V(0)), lang.SkipC()),
			lang.LabelC("consume", lang.AssignC("r", lang.X("d"))),
		),
	}
	mpVars := map[event.Var]event.Val{"d": 0, "f": 0, "r": 0}
	mpChecker := compile([]Annotation{
		{Name: "d update-only", Then: UpdateOnlyAssertion{X: "d"}},
		{Name: "payload", When: func(c core.Config) bool {
			return lang.AtLabel(c.Program().Thread(2)) == "consume"
		}, Then: DVAssertion{T: 2, X: "d", V: 5}},
		{Name: "flag after payload", Then: Either(VOAssertion{X: "d", Y: "f"}, DVAssertion{T: 1, X: "d", V: 0})},
		{Name: "r unwritten", Then: Either(DVAssertion{T: 1, X: "r", V: 0}, UpdateOnlyAssertion{X: "r"})},
	})
	mpOracle := func(c core.Config) []int {
		d := newDefs(c)
		holds := []bool{
			d.updateOnly("d"),
			lang.AtLabel(c.Program().Thread(2)) != "consume" || d.dv(2, "d", 5),
			d.vo("d", "f") || d.dv(1, "d", 0),
			d.dv(1, "r", 0) || d.updateOnly("r"),
		}
		var bad []int
		for i, h := range holds {
			if !h {
				bad = append(bad, i)
			}
		}
		return bad
	}

	const bound = 16
	lists := [][]core.Config{reachable(p, vars, bound), reachable(p, shifted, bound), reachable(mp, mpVars, bound)}
	failing := make([]int, len(lists))
	for i := 0; ; i++ {
		done := true
		for k, cs := range lists {
			if i >= len(cs) {
				continue
			}
			done = false
			c := cs[i]
			var got, want []int
			if k < 2 {
				got, want = CheckPetersonInvariants(c), oracleViolations(c)
			} else {
				got, want = failures(mpChecker, c), mpOracle(c)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("program %d, configuration %d: compiled %v, oracle %v at\n%s%s", k, i, got, want, c.Program(), c.S)
			}
			if len(want) > 0 {
				failing[k]++
			}
		}
		if done {
			break
		}
	}
	// The MP list must exercise both verdicts, or the comparison would
	// pass on a constant.
	if failing[2] == 0 || failing[2] == len(lists[2]) {
		t.Fatalf("MP annotations fail on %d of %d configurations", failing[2], len(lists[2]))
	}
}
