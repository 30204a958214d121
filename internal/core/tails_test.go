package core

import (
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/event"
	"repro/internal/fingerprint"
	"repro/internal/relation"
)

// backing returns the address of a relation's first storage word, so
// a test can tell an in-place extension from a copy.
func backing(r relation.Rel) uintptr {
	return reflect.ValueOf(r).FieldByName("words").Pointer()
}

// history is everything a successor may share with its parent.
type history struct {
	events        []evRec
	hb, eco, comb relation.Rel
	fp            fingerprint.FP
	sig, canon    string
}

func historyOf(s *State) history {
	s.memo.mu.Lock()
	defer s.memo.mu.Unlock()
	return history{
		events: slices.Clone(s.events),
		hb:     s.hbLocked().Clone(),
		eco:    s.ecoLocked().Clone(),
		comb:   s.combLocked().Clone(),
		fp:     s.Fingerprint(),
		sig:    s.Signature(),
		canon:  s.CanonicalSignature(),
	}
}

func (h history) check(t *testing.T, s *State, name string) {
	t.Helper()
	got := historyOf(s)
	if !slices.Equal(got.events, h.events) {
		t.Errorf("%s: events changed: %v, was %v", name, got.events, h.events)
	}
	for _, c := range []struct {
		what      string
		got, want relation.Rel
	}{{"hb", got.hb, h.hb}, {"eco", got.eco, h.eco}, {"comb", got.comb, h.comb}} {
		if !c.got.Equal(c.want) {
			t.Errorf("%s: %s changed: %s, was %s", name, c.what, c.got, c.want)
		}
	}
	if got.fp != h.fp || got.sig != h.sig || got.canon != h.canon {
		t.Errorf("%s: identity changed: %v %s, was %v %s", name, got.fp, got.sig, h.fp, h.sig)
	}
}

// TestClaimedTailsAliasing drives the aliasing rules of the claimable
// tails: one parent with a claiming successor (which extends the
// parent's event list and closures in place), a copying successor
// (which may extend only hb in place), and a third successor that is
// dropped before its sibling's child is built; and a dropped claimer,
// whose claim stays taken so its sibling copies. No parent may change,
// and the incremental audit must be clean on every state.
func TestClaimedTailsAliasing(t *testing.T) {
	must := func(s *State, _ event.Event, err error) *State {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s0 := Init(map[event.Var]event.Val{"x": 0, "y": 0})
	s1 := must(s0.StepWrite(1, true, "x", 1, 0)) // tag 2
	// s1's first successor takes its claims, so the parent is a copy
	// and has spare capacity in every history.
	mustAudit(t, must(s1.StepWrite(2, false, "y", 5, 1)), "first successor of s1")
	p := must(s1.StepWrite(2, false, "y", 1, 1)) // tag 3
	mustAudit(t, p, "parent")
	ph := historyOf(p)

	// The claiming successor reads the mo-maximal y, so each of its
	// closure extensions is g's row alone; the copying successor writes
	// x after its initialising write (not mo-maximal), which adds g to
	// old eco and comb rows. The claimer is built first and wins the
	// event-list claim. The copier derives its closures first: it wins
	// hb's claim (an hb extension is always one row) but must leave
	// eco's and comb's to the claimer rather than touch the parent's
	// storage.
	claimer := must(p.StepRead(1, false, "y", 3))
	copier := must(p.StepWrite(2, false, "x", 2, 0))
	mustAudit(t, copier, "copier")
	mustAudit(t, claimer, "claimer")
	for _, c := range []struct {
		what        string
		got, parent uintptr
		shared      bool
	}{
		{"claimer events", uintptr(unsafe.Pointer(&claimer.events[0])), uintptr(unsafe.Pointer(&p.events[0])), true},
		{"claimer hb", backing(claimer.memo.hbP), backing(p.memo.hbP), false},
		{"claimer eco", backing(claimer.memo.ecoP), backing(p.memo.ecoP), true},
		{"claimer comb", backing(claimer.memo.combP), backing(p.memo.combP), true},
		{"copier events", uintptr(unsafe.Pointer(&copier.events[0])), uintptr(unsafe.Pointer(&p.events[0])), false},
		{"copier hb", backing(copier.memo.hbP), backing(p.memo.hbP), true},
		{"copier eco", backing(copier.memo.ecoP), backing(p.memo.ecoP), false},
		{"copier comb", backing(copier.memo.combP), backing(p.memo.combP), false},
	} {
		if (c.got == c.parent) != c.shared {
			t.Errorf("%s: shares the parent's storage = %v, want %v", c.what, c.got == c.parent, c.shared)
		}
	}

	// A dropped successor, then a grandchild built after it.
	dropped := must(p.StepRead(2, true, "x", 2))
	mustAudit(t, dropped, "dropped")
	grandchild := must(claimer.StepWrite(1, false, "x", 3, 2))
	mustAudit(t, grandchild, "grandchild")

	// A dropped claimer keeps its claim: its sibling copies, and sees
	// none of what the dropped claimer wrote into the shared tail.
	ch := historyOf(copier)
	lost := must(copier.StepRead(2, false, "x", 2))
	mustAudit(t, lost, "dropped claimer")
	if &lost.events[0] != &copier.events[0] || backing(lost.memo.hbP) != backing(copier.memo.hbP) ||
		backing(lost.memo.ecoP) != backing(copier.memo.ecoP) || backing(lost.memo.combP) != backing(copier.memo.combP) {
		t.Fatal("dropped claimer did not claim")
	}
	lostFP := lost.Fingerprint()
	sibling := must(copier.StepRead(2, false, "x", 2))
	mustAudit(t, sibling, "sibling of a dropped claimer")
	if &sibling.events[0] == &copier.events[0] || backing(sibling.memo.hbP) == backing(copier.memo.hbP) ||
		backing(sibling.memo.ecoP) == backing(copier.memo.ecoP) || backing(sibling.memo.combP) == backing(copier.memo.combP) {
		t.Error("sibling extended a tail already claimed")
	}
	if sibling.Fingerprint() != lostFP {
		t.Error("sibling and dropped claimer differ")
	}

	ph.check(t, p, "parent")
	ch.check(t, copier, "copier")
	for name, s := range map[string]*State{"parent": p, "claimer": claimer, "copier": copier, "grandchild": grandchild} {
		mustAudit(t, s, name+" (after all successors)")
	}
}
