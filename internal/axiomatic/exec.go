// Package axiomatic implements the axiomatic side of the paper: the
// RAR fragment of RC11 (§4.1, Definition 4.2), the canonical C11
// consistency conditions of Appendix C, pre-executions and their
// justification (Definition 4.3), and the completeness replay of
// Theorem 4.8 that drives every execution back through the operational
// semantics of internal/core.
package axiomatic

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/fingerprint"
	"repro/internal/relation"
)

// Exec is a candidate execution ((D, sb), rf, mo): an event set with
// the three basic relations, not necessarily valid. Unlike core.State
// (which can only be grown through the Figure 3 rules), an Exec can
// hold arbitrary relation contents, which is exactly what the
// axiomatic semantics quantifies over.
type Exec struct {
	Events []event.Event // D; index is the tag
	SB     relation.Rel
	RF     relation.Rel
	MO     relation.Rel
}

// NewExec returns an execution over the given events with empty
// relations.
func NewExec(events []event.Event) Exec {
	n := len(events)
	return Exec{
		Events: events,
		SB:     relation.New(n),
		RF:     relation.New(n),
		MO:     relation.New(n),
	}
}

// FromState converts an operationally constructed state into a
// candidate execution (they have identical components).
func FromState(s *core.State) Exec {
	return Exec{Events: s.Events(), SB: s.SB(), RF: s.RF(), MO: s.MO()}
}

// Clone returns an independent copy of x.
func (x Exec) Clone() Exec {
	ev := make([]event.Event, len(x.Events))
	copy(ev, x.Events)
	return Exec{Events: ev, SB: x.SB.Clone(), RF: x.RF.Clone(), MO: x.MO.Clone()}
}

// N returns |D|.
func (x Exec) N() int { return len(x.Events) }

// SW returns sw = rf ∩ (WrR × RdA).
func (x Exec) SW() relation.Rel {
	return x.RF.FilterPairs(func(a, b int) bool {
		return x.Events[a].Releasing() && x.Events[b].Acquiring()
	})
}

// HB returns hb = (sb ∪ sw)⁺.
func (x Exec) HB() relation.Rel {
	return relation.UnionOf(x.SB, x.SW()).TransitiveClosure()
}

// FR returns fr = (rf⁻¹ ; mo) \ Id.
func (x Exec) FR() relation.Rel {
	return relation.Compose(x.RF.Converse(), x.MO).WithoutIdentity()
}

// ECO returns eco = (fr ∪ mo ∪ rf)⁺.
func (x Exec) ECO() relation.Rel {
	return relation.UnionOf(x.FR(), x.MO, x.RF).TransitiveClosure()
}

// ECOClosedForm returns rf ∪ mo ∪ fr ∪ (mo;rf) ∪ (fr;rf) — the
// closed form of eco proved in Lemma C.9 for executions satisfying
// update atomicity.
func (x Exec) ECOClosedForm() relation.Rel {
	fr := x.FR()
	return relation.UnionOf(
		x.RF, x.MO, fr,
		relation.Compose(x.MO, x.RF),
		relation.Compose(fr, x.RF),
	)
}

// Reads returns the tags of read events (including updates).
func (x Exec) Reads() []event.Tag {
	var out []event.Tag
	for i, e := range x.Events {
		if e.IsRead() {
			out = append(out, event.Tag(i))
		}
	}
	return out
}

// Restrict returns the execution restricted to the event set E
// (Theorem 4.8's ↓E operator), re-tagging events densely in ascending
// tag order.
func (x Exec) Restrict(keep []event.Tag) Exec {
	sorted := append([]event.Tag(nil), keep...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := map[event.Tag]int{}
	events := make([]event.Event, 0, len(sorted))
	for newTag, g := range sorted {
		idx[g] = newTag
		e := x.Events[int(g)]
		e.Tag = event.Tag(newTag)
		events = append(events, e)
	}
	out := NewExec(events)
	cp := func(src relation.Rel, dst *relation.Rel) {
		for _, p := range src.Pairs() {
			i, iok := idx[event.Tag(p[0])]
			j, jok := idx[event.Tag(p[1])]
			if iok && jok {
				dst.Add(i, j)
			}
		}
	}
	cp(x.SB, &out.SB)
	cp(x.RF, &out.RF)
	cp(x.MO, &out.MO)
	return out
}

// CanonicalSignature returns an interleaving-independent identity for
// the execution: events are renamed by (thread, position-in-thread)
// with initialising writes ordered by variable, and the rf and mo
// relations are printed over those canonical names. Two executions
// reachable by different interleavings of the same per-thread event
// sequences with the same rf and mo share a signature.
func (x Exec) CanonicalSignature() string {
	return fingerprint.Signature(x.Events, x.RF, x.MO)
}

// Fingerprint returns the 128-bit binary equivalent of
// CanonicalSignature: the same (thread, position-in-thread) renaming
// and the same identified executions, hashed instead of printed. It
// uses the encoding shared with core.State.Fingerprint, so an
// operationally built state and its FromState image fingerprint
// identically.
func (x Exec) Fingerprint() fingerprint.FP {
	return fingerprint.Canonical(x.Events, x.RF, x.MO)
}

// String renders a readable multi-line description.
func (x Exec) String() string {
	var b strings.Builder
	for _, e := range x.Events {
		fmt.Fprintf(&b, "%s\n", e)
	}
	fmt.Fprintf(&b, "sb=%s rf=%s mo=%s", x.SB, x.RF, x.MO)
	return b.String()
}
