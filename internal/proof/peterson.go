package proof

import (
	"fmt"

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
func PC(c lang.Com) int {
	switch x := c.(type) {
	case lang.Skip:
		return 7
	case lang.Seq:
		if p := PC(x.C1); p != 7 {
			return p
		}
		return PC(x.C2)
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
	default:
		panic(fmt.Sprintf("proof: unclassifiable command %T", c))
	}
}

// flagVar returns flag_t. The invariants evaluate it on every explored
// configuration, so the two Peterson flags are pre-built rather than
// formatted each time.
func flagVar(t event.Thread) event.Var {
	switch t {
	case 1:
		return "flag1"
	case 2:
		return "flag2"
	}
	return event.Var(fmt.Sprintf("flag%d", t))
}

// PetersonInvariant identifies one of the invariants (4)–(10).
type PetersonInvariant struct {
	ID    int
	Name  string
	Holds func(c core.Config) bool
}

// PetersonInvariants returns the seven invariants of Lemma D.1,
// indexed (4)–(10) as in §5.2. other(t) is written t̂.
func PetersonInvariants() []PetersonInvariant {
	other := func(t event.Thread) event.Thread { return 3 - t }
	threads := []event.Thread{1, 2}

	return []PetersonInvariant{
		{4, "turn is update-only", func(c core.Config) bool {
			return c.S.UpdateOnly("turn")
		}},
		{5, "turn =_1 2 ∨ turn =_2 1", func(c core.Config) bool {
			return DV(c.S, 1, "turn", 2) || DV(c.S, 2, "turn", 1)
		}},
		{6, "pc_t ∈ {3,4,5,6} ⇒ flag_t =_t true", func(c core.Config) bool {
			for _, t := range threads {
				pc := PC(c.Program().Thread(t))
				if pc >= 3 && pc <= 6 && !DV(c.S, t, flagVar(t), event.True) {
					return false
				}
			}
			return true
		}},
		{7, "pc_t ∈ {4,5,6} ⇒ flag_t ↪ turn", func(c core.Config) bool {
			for _, t := range threads {
				pc := PC(c.Program().Thread(t))
				if pc >= 4 && pc <= 6 && !VO(c.S, flagVar(t), "turn") {
					return false
				}
			}
			return true
		}},
		{8, "pc_t, pc_t̂ ∈ {4,5,6} ⇒ flag_t̂ =_t true ∨ turn =_t̂ t", func(c core.Config) bool {
			for _, t := range threads {
				th := other(t)
				pct := PC(c.Program().Thread(t))
				pcth := PC(c.Program().Thread(th))
				if pct >= 4 && pct <= 6 && pcth >= 4 && pcth <= 6 {
					if !DV(c.S, t, flagVar(th), event.True) &&
						!DV(c.S, th, "turn", event.Val(t)) {
						return false
					}
				}
			}
			return true
		}},
		{9, "pc_t = 5 ∧ pc_t̂ ∈ {4,5,6} ⇒ turn =_t̂ t", func(c core.Config) bool {
			for _, t := range threads {
				th := other(t)
				pcth := PC(c.Program().Thread(th))
				if PC(c.Program().Thread(t)) == 5 && pcth >= 4 && pcth <= 6 {
					if !DV(c.S, th, "turn", event.Val(t)) {
						return false
					}
				}
			}
			return true
		}},
		{10, "pc_t = 2 ⇒ flag_t =_t false", func(c core.Config) bool {
			for _, t := range threads {
				if PC(c.Program().Thread(t)) == 2 && !DV(c.S, t, flagVar(t), event.False) {
					return false
				}
			}
			return true
		}},
	}
}

// petersonInvariants is the memoised invariant table:
// CheckPetersonInvariants runs on every explored configuration, and
// rebuilding the closures per call dominated its allocation profile.
var petersonInvariants = PetersonInvariants()

// CheckPetersonInvariants evaluates all invariants on a configuration
// and returns the IDs of those violated (empty when all hold).
func CheckPetersonInvariants(c core.Config) []int {
	var bad []int
	for _, inv := range petersonInvariants {
		if !inv.Holds(c) {
			bad = append(bad, inv.ID)
		}
	}
	return bad
}

// Theorem58 is the mutual-exclusion theorem: pc_1 ≠ 5 ∨ pc_2 ≠ 5.
// DeriveTheorem58 carries out the paper's two-line derivation on a
// configuration satisfying invariant (9): a double critical section
// would give turn =_1 2 and turn =_2 1, contradicting Lemma 5.4.
func Theorem58(c core.Config) bool {
	return PC(c.Program().Thread(1)) != 5 || PC(c.Program().Thread(2)) != 5
}

// DeriveTheorem58 replays the proof of Theorem 5.8 on a configuration:
// if invariant (9) holds, a double critical section is impossible —
// it would require turn =_2 1 and turn =_1 2 simultaneously, which
// Lemma 5.4 (determinate values of one variable agree) refutes. The
// function reports whether the derivation applies and yields mutual
// exclusion; it returns false exactly when the premise (invariant 9)
// fails, making the paper's proof inapplicable.
func DeriveTheorem58(c core.Config) bool {
	inv9 := &petersonInvariants[5]
	if inv9.ID != 9 {
		panic("proof: invariant table out of order")
	}
	if !inv9.Holds(c) {
		return false // premise missing: the caller's invariant proof failed
	}
	// With (9), pc_1 = pc_2 = 5 would give turn =_2 1 ∧ turn =_1 2,
	// contradicting Lemma 5.4 — so the conclusion must already be
	// visible in the configuration.
	return Theorem58(c)
}
