// Package proof implements the paper's verification method (§5): the
// determinate-value and variable-ordering assertion language
// (Definitions 5.1 and 5.5), the inference rules of Figure 4, the
// supporting lemmas (5.3, 5.4, 5.6), and the Peterson invariants
// (4)–(10) whose inductiveness proves mutual exclusion (Theorem 5.8).
//
// The paper proves rule soundness by hand (Appendix B); here every
// rule is a checkable premise→conclusion implication, and the test
// suite validates each on randomly generated reachable transitions, as
// well as checking the Peterson invariants on every reachable
// configuration of the bounded interpreted semantics.
package proof

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/event"
)

// DV reports the determinate-value assertion x =σ_t v (Definition
// 5.1): v is the value of the mo-last write to x, and that write lies
// in the happens-before cone of t (it is initial, by t, or
// happens-before an event of t). Under this condition a read of x by
// t can only return v.
func DV(s *core.State, t event.Thread, x event.Var, v event.Val) bool {
	id, ok := s.VarID(x)
	return ok && dvOf(s, t, id, v)
}

// dvOf is DV for the variable with id x.
func dvOf(s *core.State, t event.Thread, x int, v event.Val) bool {
	last := s.LastOf(x)
	return s.WriteValue(last) == v && // condition (1)
		s.InHBCone(t, last) // condition (2)
}

// DVValue returns the value v for which x =σ_t v holds, if any.
func DVValue(s *core.State, t event.Thread, x event.Var) (event.Val, bool) {
	id, ok := s.VarID(x)
	if !ok || !s.InHBCone(t, s.LastOf(id)) {
		return 0, false
	}
	return s.WriteValue(s.LastOf(id)), true
}

// VO reports the variable-ordering assertion x ↪σ y (Definition 5.5):
// the last write to x happens-before the last write to y.
func VO(s *core.State, x, y event.Var) bool {
	idx, okx := s.VarID(x)
	idy, oky := s.VarID(y)
	return okx && oky && voOf(s, idx, idy)
}

// voOf is VO for the variables with ids x and y.
func voOf(s *core.State, x, y int) bool { return s.HBHas(s.LastOf(x), s.LastOf(y)) }

// Assertion is a state predicate of the proof calculus.
type Assertion interface {
	Holds(s *core.State) bool
	String() string
}

// DVAssertion is x =_t v.
type DVAssertion struct {
	T event.Thread
	X event.Var
	V event.Val
}

// Holds implements Assertion.
func (a DVAssertion) Holds(s *core.State) bool { return DV(s, a.T, a.X, a.V) }

func (a DVAssertion) String() string {
	return fmt.Sprintf("%s =_%d %d", a.X, a.T, a.V)
}

// VOAssertion is x ↪ y.
type VOAssertion struct {
	X, Y event.Var
}

// Holds implements Assertion.
func (a VOAssertion) Holds(s *core.State) bool { return VO(s, a.X, a.Y) }

func (a VOAssertion) String() string {
	return fmt.Sprintf("%s ↪ %s", a.X, a.Y)
}

// Lemma 5.1 condition (3): a determinate value implies the thread can
// observe exactly the last write of x.
func observableSingleton(s *core.State, t event.Thread, x event.Var) bool {
	last, ok := s.Last(x)
	if !ok {
		return false
	}
	obs := s.ObservableFor(t, x)
	return len(obs) == 1 && obs[0] == last
}

// Lemma53 (Determinate-Value Read): on a READ or RMW transition whose
// thread holds var(e) =σ_tid(e) v, the value read is v. The function
// reports whether the lemma's conclusion holds for the given
// transition — soundness tests assert it always does.
func Lemma53(before *core.State, e event.Event, v event.Val) bool {
	if !DV(before, e.TID, e.Var(), v) {
		return true // premise false: lemma vacuously holds
	}
	return e.RdVal() == v
}

// Lemma54 (Determinate-Value Agreement): two determinate values for
// the same variable agree across threads.
func Lemma54(s *core.State, t1, t2 event.Thread, x event.Var) bool {
	v1, ok1 := DVValue(s, t1, x)
	v2, ok2 := DVValue(s, t2, x)
	if !ok1 || !ok2 {
		return true
	}
	return v1 == v2
}

// Lemma56 (Last Modification Transition): if the transition's thread
// holds a determinate value for var(e), or e is a modification of an
// update-only variable, the observed write is σ.last(var(e)).
//
// Note the restriction of the second disjunct to modifications
// (e ∈ Wr): pure reads may observe covered writes (rule READ does not
// exclude CW_σ), so a read of an update-only variable can observe a
// non-last write. The paper states the lemma for arbitrary
// transitions, but its justification ("because m is not covered") and
// both of its uses (the swap in Case 2 of the Peterson proof and the
// update-only argument of §5.1) apply to modifications only.
func Lemma56(before *core.State, m event.Tag, e event.Event) bool {
	x := e.Var()
	_, hasDV := DVValue(before, e.TID, x)
	updOnlyMod := e.IsWrite() && before.UpdateOnly(x)
	if !hasDV && !updOnlyMod {
		return true // premise false
	}
	last, ok := before.Last(x)
	return ok && m == last
}
