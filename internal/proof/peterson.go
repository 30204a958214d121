package proof

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/lang"
)

// This file implements the Peterson verification of §5.2: the program
// counter abstraction P.pc_t, the invariants (4)–(10) of Lemma D.1,
// and the mutual-exclusion consequence (Theorem 5.8). The paper proves
// invariance by hand, case-splitting on transitions; the test suite
// checks every invariant on every reachable configuration of the
// bounded interpreted semantics, and checks Theorem 5.8's derivation
// (invariant (9) plus Lemma 5.4 refute a double critical section).

// PC returns the paper's program-counter abstraction for a Peterson
// thread's residual command:
//
//	2 — about to set its flag           (line 2)
//	3 — about to swap turn              (line 3)
//	4 — in the busy-wait loop           (line 4)
//	5 — in the critical section         (line 5)
//	6 — about to reset its flag         (line 6)
//	7 — terminated
//
// It panics on a command of no Peterson line.
func PC(c lang.Com) int {
	pc := classify(c)
	if pc == 0 {
		panic(fmt.Sprintf("proof: unclassifiable command %s", c))
	}
	return pc
}

// classify is PC, with 0 for a command of no Peterson line.
func classify(c lang.Com) int {
	switch x := c.(type) {
	case lang.Skip:
		return 7
	case lang.Seq:
		if p := classify(x.C1); p != 7 {
			return p
		}
		return classify(x.C2)
	case lang.Assign:
		// Classification works across the weakened variants too: an
		// assignment to turn is line 3 (the swap's replacement), a
		// flag reset (literal false, release or relaxed) is line 6,
		// and the initial flag raise is line 2.
		if x.X == "turn" {
			return 3
		}
		if lit, ok := x.E.(lang.Lit); ok && lit.V == event.False {
			return 6
		}
		return 2
	case lang.Swap:
		return 3
	case lang.While:
		return 4
	case lang.Label:
		return 5
	}
	return 0
}

// pcs memoises classify per program: a search visits few programs.
var pcs = lang.NewClassifier(func(c lang.Com) uint8 { return uint8(classify(c)) })

// pcOf returns PC of thread t in n's program, read from the memo. Like
// PC it panics on a thread of no Peterson line, but only when asked
// about that thread: generic annotations run on any program.
func pcOf(n *lang.Node, t event.Thread) int {
	if pc := n.Classes(pcs)[t-1]; pc != 0 {
		return int(pc)
	}
	return PC(n.Prog().Thread(t))
}

// PetersonInvariants returns the invariants (4)–(10) of Lemma D.1 as
// an annotation list, grouped by invariant ID in that order. Each of
// (6)–(10) quantifies over the threads t ∈ {1, 2}, with t̂ = 3 − t
// the other one, and is one obligation per thread; all obligations of
// one invariant carry its ID and name.
func PetersonInvariants() []Annotation {
	anns := []Annotation{
		{ID: 4, Name: "turn is update-only", Then: UpdateOnlyAssertion{X: "turn"}},
		{ID: 5, Name: "turn =_1 2 ∨ turn =_2 1", Then: Either(
			DVAssertion{T: 1, X: "turn", V: 2},
			DVAssertion{T: 2, X: "turn", V: 1},
		)},
	}
	for t := event.Thread(1); t <= 2; t++ {
		th := 3 - t
		flag, flagTh := event.Var(fmt.Sprintf("flag%d", t)), event.Var(fmt.Sprintf("flag%d", th))
		anns = append(anns,
			Annotation{ID: 6, Name: "pc_t ∈ {3,4,5,6} ⇒ flag_t =_t true",
				When: AtPC(t, 3, 4, 5, 6), Then: DVAssertion{T: t, X: flag, V: event.True}},
			Annotation{ID: 7, Name: "pc_t ∈ {4,5,6} ⇒ flag_t ↪ turn",
				When: AtPC(t, 4, 5, 6), Then: VOAssertion{X: flag, Y: "turn"}},
			Annotation{ID: 8, Name: "pc_t, pc_t̂ ∈ {4,5,6} ⇒ flag_t̂ =_t true ∨ turn =_t̂ t",
				When: Both(AtPC(t, 4, 5, 6), AtPC(th, 4, 5, 6)),
				Then: Either(DVAssertion{T: t, X: flagTh, V: event.True}, DVAssertion{T: th, X: "turn", V: event.Val(t)})},
			Annotation{ID: 9, Name: "pc_t = 5 ∧ pc_t̂ ∈ {4,5,6} ⇒ turn =_t̂ t",
				When: Both(AtPC(t, 5), AtPC(th, 4, 5, 6)), Then: DVAssertion{T: th, X: "turn", V: event.Val(t)}},
			Annotation{ID: 10, Name: "pc_t = 2 ⇒ flag_t =_t false",
				When: AtPC(t, 2), Then: DVAssertion{T: t, X: flag, V: event.False}},
		)
	}
	// Group the obligations by invariant, thread 1's first.
	slices.SortStableFunc(anns, func(a, b Annotation) int { return a.ID - b.ID })
	return anns
}

// peterson is the compiled invariant list; invariant (9)'s obligations
// are peterson.anns[inv9Lo:inv9Hi].
var (
	peterson       = compile(PetersonInvariants())
	inv9Lo, inv9Hi = slices.IndexFunc(peterson.anns, func(a Annotation) bool { return a.ID == 9 }),
		slices.IndexFunc(peterson.anns, func(a Annotation) bool { return a.ID > 9 })
)

// CheckPetersonInvariants evaluates all invariants on a configuration
// and returns the IDs of those violated (empty when all hold).
func CheckPetersonInvariants(c core.Config) []int {
	var bad []int
	n := len(peterson.anns)
	for i := peterson.check(c, 0, n); i < n; i = peterson.check(c, i+1, n) {
		if id := peterson.anns[i].ID; len(bad) == 0 || bad[len(bad)-1] != id {
			bad = append(bad, id)
		}
	}
	return bad
}

// Theorem58 is the mutual-exclusion theorem: pc_1 ≠ 5 ∨ pc_2 ≠ 5.
// DeriveTheorem58 carries out the paper's two-line derivation on a
// configuration satisfying invariant (9): a double critical section
// would give turn =_1 2 and turn =_2 1, contradicting Lemma 5.4.
func Theorem58(c core.Config) bool {
	return pcOf(c.Node(), 1) != 5 || pcOf(c.Node(), 2) != 5
}

// DeriveTheorem58 replays the proof of Theorem 5.8 on a configuration:
// if invariant (9) holds, a double critical section is impossible —
// it would require turn =_2 1 and turn =_1 2 simultaneously, which
// Lemma 5.4 (determinate values of one variable agree) refutes. The
// function reports whether the derivation applies and yields mutual
// exclusion; it returns false exactly when the premise (invariant 9)
// fails, making the paper's proof inapplicable.
func DeriveTheorem58(c core.Config) bool {
	if peterson.check(c, inv9Lo, inv9Hi) < inv9Hi {
		return false // premise missing: the caller's invariant proof failed
	}
	// With (9), pc_1 = pc_2 = 5 would give turn =_2 1 ∧ turn =_1 2,
	// contradicting Lemma 5.4 — so the conclusion must already be
	// visible in the configuration.
	return Theorem58(c)
}
