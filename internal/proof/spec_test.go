package proof

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/explore"
	"repro/internal/lang"
	"repro/internal/litmus"
)

func TestUpdateOnlyAssertion(t *testing.T) {
	s := core.Init(map[event.Var]event.Val{"turn": 1})
	a := UpdateOnlyAssertion{X: "turn"}
	if !a.Holds(s) || a.String() != "update-only(turn)" {
		t.Fatalf("holds=%v s=%q", a.Holds(s), a)
	}
	w0, _ := s.Last("turn")
	s1, _, _ := s.StepWrite(1, false, "turn", 2, w0)
	if a.Holds(s1) {
		t.Fatal("plain write should break update-only")
	}
}

func TestEitherAssertion(t *testing.T) {
	s := core.Init(map[event.Var]event.Val{"x": 1})
	good := DVAssertion{T: 1, X: "x", V: 1}
	bad := DVAssertion{T: 1, X: "x", V: 9}
	if !Either(bad, good).Holds(s) || !Either(good, bad).Holds(s) {
		t.Fatal("disjunction broken")
	}
	if Either(bad, bad).Holds(s) {
		t.Fatal("false ∨ false held")
	}
	if !strings.Contains(Either(good, bad).String(), "∨") {
		t.Fatal("rendering")
	}
}

func TestGuardHelpers(t *testing.T) {
	p, vars := litmus.Peterson()
	c := core.NewConfig(p, vars)
	if !AtPC(1, 2)(c) || AtPC(1, 5)(c) {
		t.Fatal("AtPC wrong at initial configuration")
	}
	if !Both(AtPC(1, 2), AtPC(2, 2))(c) {
		t.Fatal("Both wrong")
	}
	if Both(AtPC(1, 2), AtPC(2, 5))(c) {
		t.Fatal("Both ignored second guard")
	}
}

// The generic engine proves Peterson from its invariant list.
func TestPetersonViaAnnotations(t *testing.T) {
	p, vars := litmus.Peterson()
	res := CheckAnnotations(core.NewConfig(p, vars), PetersonInvariants(),
		explore.Options{MaxEvents: 11})
	if !res.OK() {
		t.Fatalf("annotation %q failed at:\n%s", res.Failed.Name, res.At.Program())
	}
	if res.Explored < 300 {
		t.Fatalf("exploration too small: %d", res.Explored)
	}
}

// The engine localises failures: on the weak-turn variant it names the
// first broken obligation, which must be invariant (4).
func TestWeakTurnAnnotationDiagnosis(t *testing.T) {
	p, vars := litmus.PetersonWeakTurn()
	res := CheckAnnotations(core.NewConfig(p, vars), PetersonInvariants(),
		explore.Options{MaxEvents: 11})
	if res.OK() {
		t.Fatal("weak-turn variant passed the annotations")
	}
	if res.Failed.ID != 4 {
		t.Fatalf("first failure = (%d) %s, want invariant (4)", res.Failed.ID, res.Failed.Name)
	}
	if res.At == nil {
		t.Fatal("no witness configuration")
	}
}

// A user-level spec beyond Peterson: the message-passing property of
// Example 5.7 phrased as annotations over a custom guard.
func TestMessagePassingViaAnnotations(t *testing.T) {
	p := lang.Prog{
		lang.SeqC(
			lang.AssignC("d", lang.V(5)),
			lang.AssignRelC("f", lang.V(1)),
		),
		lang.SeqC(
			lang.WhileC(lang.Eq(lang.XA("f"), lang.V(0)), lang.SkipC()),
			lang.LabelC("consume", lang.AssignC("r", lang.X("d"))),
		),
	}
	vars := map[event.Var]event.Val{"d": 0, "f": 0, "r": 0}
	anns := []Annotation{
		{
			Name: "payload determinate past the loop",
			When: func(c core.Config) bool {
				return lang.AtLabel(c.Program().Thread(2)) == "consume"
			},
			Then: DVAssertion{T: 2, X: "d", V: 5},
		},
		{
			Name: "producer post-condition",
			When: func(c core.Config) bool {
				return lang.Terminated(c.Program().Thread(1))
			},
			Then: Either(VOAssertion{X: "d", Y: "f"}, DVAssertion{T: 1, X: "d", V: 5}),
		},
	}
	res := CheckAnnotations(core.NewConfig(p, vars), anns, explore.Options{MaxEvents: 12})
	if !res.OK() {
		t.Fatalf("annotation %q failed", res.Failed.Name)
	}
}

// Unguarded annotations apply everywhere.
func TestUnguardedAnnotation(t *testing.T) {
	p := lang.Prog{lang.SwapC("t", 1)}
	res := CheckAnnotations(core.NewConfig(p, map[event.Var]event.Val{"t": 0}),
		[]Annotation{{Name: "t update-only", Then: UpdateOnlyAssertion{X: "t"}}},
		explore.Options{MaxEvents: 6})
	if !res.OK() {
		t.Fatal("update-only failed on a swap-only program")
	}
	// A false unguarded annotation is caught at the initial state.
	res2 := CheckAnnotations(core.NewConfig(p, map[event.Var]event.Val{"t": 0}),
		[]Annotation{{Name: "impossible", Then: DVAssertion{T: 1, X: "t", V: 42}}},
		explore.Options{MaxEvents: 6})
	if res2.OK() || res2.Failed.Name != "impossible" {
		t.Fatal("false annotation not caught")
	}
}

// A program-counter guard reaches PC's panic only for the thread it
// asks about: annotations guarded on a classifiable thread run on a
// program whose other thread has no Peterson line.
func TestAtPCPanicsOnlyForItsThread(t *testing.T) {
	p := lang.Prog{
		lang.SwapC("t", 1),
		lang.IfC(lang.Eq(lang.X("t"), lang.V(0)), lang.SkipC(), lang.SkipC()),
	}
	cfg := core.NewConfig(p, map[event.Var]event.Val{"t": 0})
	res := CheckAnnotations(cfg, []Annotation{
		{Name: "t update-only at the swap", When: AtPC(1, 3), Then: UpdateOnlyAssertion{X: "t"}},
	}, explore.Options{MaxEvents: 6, Workers: 1})
	if !res.OK() {
		t.Fatalf("annotation %q failed", res.Failed.Name)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a guard on the unclassifiable thread did not panic")
		}
	}()
	AtPC(2, 4)(cfg)
}
