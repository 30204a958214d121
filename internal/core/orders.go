package core

import (
	"repro/internal/bits"
	"repro/internal/event"
	"repro/internal/relation"
)

// This file derives the orders of §3.1–§3.2 from a state:
//
//	sw  = rf ∩ (WrR × RdA)
//	hb  = (sb ∪ sw)⁺
//	fr  = (rf⁻¹ ; mo) \ Id
//	eco = (fr ∪ mo ∪ rf)⁺
//
// and the three write sets of §3.2: encountered writes EW_σ(t),
// observable writes OW_σ(t) and covered writes CW_σ.
//
// The derived orders and the per-thread observability sets are
// memoised: a state is interrogated once per enabled thread and per
// transition premise during successor generation, and recomputing the
// closures each time dominated the explorer's profile. Public
// accessors return defensive copies; the unexported *Locked variants
// return the memoised values directly and require memo.mu held.
//
// For successor states the memos are not computed from scratch at all:
// the *Locked getters delegate to the incremental engine
// (incremental.go), which extends the parent's memoised closures by
// the one new event's edges. The from-scratch formulas survive as the
// scratch* functions, used by root states and by the audit mode
// (AuditIncremental).

// SW returns the synchronises-with relation sw = rf ∩ (WrR × RdA).
// Update events are both releasing and acquiring, so rf edges into or
// out of updates synchronise when the other side is annotated.
func (s *State) SW() relation.Rel {
	out := relation.New(len(s.events))
	for j, e := range s.events {
		if e.isRead() && e.acquiring() && s.events[e.rf].releasing() {
			out.Add(int(e.rf), j)
		}
	}
	return out
}

// HB returns happens-before hb = (sb ∪ sw)⁺ (in successor
// orientation; the maintained closure is transposed).
func (s *State) HB() relation.Rel {
	s.memo.mu.Lock()
	defer s.memo.mu.Unlock()
	return s.hbLocked().Converse()
}

// HBHas reports (a, b) ∈ hb without cloning the closure — the
// assertion checkers (internal/proof) interrogate single pairs on
// every explored configuration.
func (s *State) HBHas(a, b event.Tag) bool {
	s.memo.mu.Lock()
	defer s.memo.mu.Unlock()
	return s.hbLocked().Has(int(b), int(a))
}

// hbLocked returns the memoised happens-before closure in predecessor
// orientation: row g holds {i | (i, g) ∈ hb}.
func (s *State) hbLocked() *relation.Rel {
	if !s.memo.hbOK {
		if p := s.inc.parent; p != nil {
			s.deriveHBLocked(p)
		} else {
			s.memo.hbP = s.scratchHB()
			s.memo.hbOK = true
		}
	}
	return &s.memo.hbP
}

// scratchHB computes the transposed hb from first principles, without
// touching the memo or the incremental provenance. Transposition
// commutes with union and transitive closure, so the predecessor
// closure is the closure of the predecessor edges.
func (s *State) scratchHB() relation.Rel {
	return relation.UnionOf(s.sbPred(), s.SW().Converse()).TransitiveClosure()
}

// FR returns the from-read relation fr = (rf⁻¹ ; mo) \ Id. The
// identity is subtracted to cope with update events, which read from
// their immediate mo-predecessor and would otherwise be fr-related to
// themselves (§3.1).
func (s *State) FR() relation.Rel {
	out := relation.New(len(s.events))
	for j, e := range s.events {
		if e.isRead() {
			out.UnionRow(j, s.mo.Row(int(e.rf)))
			out.Remove(j, j)
		}
	}
	return out
}

// ECO returns the extended coherence order eco = (fr ∪ mo ∪ rf)⁺ [19]
// (in successor orientation; the maintained closure is transposed).
func (s *State) ECO() relation.Rel {
	s.memo.mu.Lock()
	defer s.memo.mu.Unlock()
	return s.ecoLocked().Converse()
}

// ecoLocked returns the memoised eco closure in predecessor
// orientation: row g holds {i | (i, g) ∈ eco}.
func (s *State) ecoLocked() *relation.Rel {
	if !s.memo.ecoOK {
		if p := s.inc.parent; p != nil {
			s.deriveECOLocked(p)
		} else {
			s.memo.ecoP = s.scratchECO()
			s.memo.ecoOK = true
		}
	}
	return &s.memo.ecoP
}

// scratchECO computes the transposed eco from first principles.
func (s *State) scratchECO() relation.Rel {
	return relation.UnionOf(s.FR(), s.mo, s.RF()).Converse().TransitiveClosure()
}

// combLocked returns the thread-independent kernel of the encountered-
// write computation, comb = eco? ; hb?, in predecessor orientation:
// row e holds {w | (w, e) ∈ comb}. EW_σ(t) is then one fused
// word-parallel operation — writes ∩ comb-predecessors of t's last
// event (see ewInto) — so memoising comb once per state makes every
// per-thread observability query a handful of word operations.
func (s *State) combLocked() *relation.Rel {
	if !s.memo.combOK {
		if p := s.inc.parent; p != nil {
			s.deriveCombLocked(p)
		} else {
			s.memo.combP = scratchComb(*s.ecoLocked(), *s.hbLocked())
			s.memo.combOK = true
		}
	}
	return &s.memo.combP
}

// scratchComb computes the transposed eco? ; hb? from the given
// transposed closures: (eco? ; hb?)⁻¹ = hb?⁻¹ ; eco?⁻¹.
func scratchComb(ecoP, hbP relation.Rel) relation.Rel {
	return relation.UnionOf(ecoP, hbP, relation.Compose(hbP, ecoP)).ReflexiveClosure()
}

// EncounteredWrites returns EW_σ(t): the writes w ∈ Wr ∩ D such that
// some event e of thread t has (w, e) ∈ eco? ; hb? (§3.2). The set is
// empty when t has executed no action.
func (s *State) EncounteredWrites(t event.Thread) bits.Set {
	s.memo.mu.Lock()
	defer s.memo.mu.Unlock()
	return s.ewLocked(t).Grow(len(s.events))
}

// obsLocked returns memo row k of the EW/OW table (EW_σ(t) is row t,
// OW_σ(t) row nthr+t) and whether it is already computed, carving the
// table on first use; memo.mu must be held. The caller fills an
// uncomputed row and then marks it with obsDone.
func (s *State) obsLocked(k int) (bits.Set, bool) {
	n := len(s.events)
	st, flags := stride(n), obsFlagWords(s.nthr)
	if s.memo.obs == nil {
		s.memo.obs = s.alloc.Words(flags + 2*s.nthr*st)
	}
	off := flags + k*st
	row := bits.FromWords(s.memo.obs[off:off+st:off+st], n)
	return row, s.memo.obs[k>>6]&(1<<(k&63)) != 0
}

func (s *State) obsDone(k int) { s.memo.obs[k>>6] |= 1 << (k & 63) }

// ewLocked returns the memoised EW_σ(t); memo.mu must be held and the
// result must not be mutated. With comb held transposed the set is
// one fused word-parallel operation over the maintained write set and
// the comb-predecessor row of t's last event — no per-write scan. A
// thread without an index row has no events, so its EW is empty.
func (s *State) ewLocked(t event.Thread) bits.Set {
	if t < 0 || int(t) >= s.nthr {
		return bits.Set{}
	}
	out, ok := s.obsLocked(int(t))
	if !ok {
		s.ewInto(out, s.combLocked(), t)
		s.obsDone(int(t))
	}
	return out
}

// scratchEW computes EW_σ(t) from the given eco?;hb? kernel into fresh
// heap storage (safe without the memo lock — used by the audit). It is
// deliberately definitional — a union over every event of t rather
// than the sb-monotonicity shortcut ewInto takes — so the audit checks
// that shortcut instead of repeating it.
func (s *State) scratchEW(comb *relation.Rel, t event.Thread) bits.Set {
	out := bits.New(len(s.events))
	tEvs, wr := s.threadEvs(t), s.writesRow()
	for e := tEvs.Next(0); e >= 0; e = tEvs.Next(e + 1) {
		out.OrAnd(comb.Row(e), wr)
	}
	return out
}

// ewInto fills out (an empty set of carrier capacity) with EW_σ(t):
// writes ∩ comb-predecessors of t's sb-last event. comb is monotone
// along sb — (w, e) ∈ eco?;hb? and (e, e') ∈ sb extend to (w, e')
// through hb — so the last event's predecessor row subsumes the rows
// of t's earlier events, and the per-thread set is one fused OrAnd.
// The initialising writes are sb-unordered among themselves, so for
// the init thread every row contributes.
func (s *State) ewInto(out bits.Set, comb *relation.Rel, t event.Thread) bits.Set {
	tEvs, wr := s.threadEvs(t), s.writesRow()
	if t == event.InitThread {
		for e := tEvs.Next(0); e >= 0; e = tEvs.Next(e + 1) {
			out.OrAnd(comb.Row(e), wr)
		}
		return out
	}
	last := tEvs.Max()
	if last < 0 {
		return out
	}
	out.OrAnd(comb.Row(last), wr)
	return out
}

// ObservableWrites returns OW_σ(t): writes not succeeded in mo by any
// encountered write of t (§3.2) — the writes t may read next.
func (s *State) ObservableWrites(t event.Thread) bits.Set {
	s.memo.mu.Lock()
	defer s.memo.mu.Unlock()
	return s.observableLocked(t).Clone()
}

// observableLocked returns the memoised OW_σ(t); memo.mu must be held
// and the result must not be mutated. A thread without an index row
// has encountered nothing, so it observes every write.
func (s *State) observableLocked(t event.Thread) bits.Set {
	if t < 0 || int(t) >= s.nthr {
		return s.writesRow()
	}
	k := s.nthr + int(t)
	out, ok := s.obsLocked(k)
	if !ok {
		s.owInto(out, s.ewLocked(t))
		s.obsDone(k)
	}
	return out
}

// scratchOW computes OW from the given encountered-write set into
// fresh heap storage (safe without the memo lock — used by the audit).
func (s *State) scratchOW(ew bits.Set) bits.Set {
	return s.owInto(bits.New(len(s.events)), ew)
}

// owInto fills out (an empty set of carrier capacity) with OW.
func (s *State) owInto(out bits.Set, ew bits.Set) bits.Set {
	wr := s.writesRow()
	for i := wr.Next(0); i >= 0; i = wr.Next(i + 1) {
		if !s.mo.Row(i).Intersects(ew) {
			out.Set(i)
		}
	}
	return out
}

// CoveredWrites returns CW_σ: writes immediately followed in rf by an
// update (§3.2). Inserting after a covered write would break update
// atomicity, so writes and updates may not be placed there. CW is a
// row of the index block, maintained at build time (rule RMW adds the
// write it reads), so this is a copy, not a derivation.
func (s *State) CoveredWrites() bits.Set { return s.coveredRow().Clone() }

// scratchCW computes CW from first principles: the rf sources of the
// updates, by a scan of the event records. The audit compares the
// maintained row with it.
func (s *State) scratchCW() bits.Set {
	out := bits.New(len(s.events))
	for _, e := range s.events {
		if e.isUpdate() {
			out.Set(int(e.rf))
		}
	}
	return out
}

// ObservableFor returns the writes to x observable by thread t,
// i.e. OW_σ(t)|ₓ, as sorted tags. These are the legal reads-from
// choices for a read of x by t (rule READ).
func (s *State) ObservableFor(t event.Thread, x event.Var) []event.Tag {
	return s.AppendObservableFor(nil, t, x)
}

// AppendObservableFor is ObservableFor into a caller-provided buffer —
// the successor hot path calls it once per read step per state, and
// the fresh slice the convenience form allocates was measurable.
func (s *State) AppendObservableFor(dst []event.Tag, t event.Thread, x event.Var) []event.Tag {
	return s.appendObservable(dst, t, x, false)
}

// InsertionPointsFor returns (OW_σ(t) \ CW_σ)|ₓ: the writes after
// which thread t may insert a new write or update to x in mo (rules
// WRITE and RMW).
func (s *State) InsertionPointsFor(t event.Thread, x event.Var) []event.Tag {
	return s.AppendInsertionPointsFor(nil, t, x)
}

// AppendInsertionPointsFor is InsertionPointsFor into a caller-provided
// buffer.
func (s *State) AppendInsertionPointsFor(dst []event.Tag, t event.Thread, x event.Var) []event.Tag {
	return s.appendObservable(dst, t, x, true)
}

// appendObservable appends OW_σ(t)|ₓ, less CW_σ when uncovered is set,
// to dst in tag order: a walk of x's write row.
func (s *State) appendObservable(dst []event.Tag, t event.Thread, x event.Var, uncovered bool) []event.Tag {
	id, ok := s.VarID(x)
	if !ok {
		return dst
	}
	xs := s.varWrites(id)
	var cw bits.Set
	if uncovered {
		cw = s.coveredRow()
	}
	s.memo.mu.Lock()
	defer s.memo.mu.Unlock()
	ow := s.observableLocked(t)
	for i := xs.Next(0); i >= 0; i = xs.Next(i + 1) {
		if ow.Test(i) && !cw.Test(i) {
			dst = append(dst, event.Tag(i))
		}
	}
	return dst
}

// Last returns σ.last(x): the mo-maximal write to x (well-defined in
// any valid state; §5.1). The maximum is maintained on every mo splice
// (insertMO), so this is an index lookup, not an O(writes²) mo scan.
func (s *State) Last(x event.Var) (event.Tag, bool) {
	id, ok := s.VarID(x)
	if !ok {
		return 0, false
	}
	return s.LastOf(id), true
}

// UpdateOnly reports whether x is an update-only variable in σ: every
// modification of x is an update or an initialising write (§5.1).
// Update-only variables admit the last-modification lemma (Lemma 5.6).
// A variable the state does not know has no modification, so it is
// update-only.
func (s *State) UpdateOnly(x event.Var) bool {
	id, ok := s.VarID(x)
	return !ok || s.UpdateOnlyOf(id)
}

// UpdateOnlyOf is UpdateOnly for the variable with id x.
func (s *State) UpdateOnlyOf(x int) bool {
	xs := s.varWrites(x)
	for g := xs.Next(0); g >= 0; g = xs.Next(g + 1) {
		if e := s.events[g]; !e.isUpdate() && !e.isInit() {
			return false
		}
	}
	return true
}

// InHBCone reports g ∈ σ.hbc(t) without materialising the cone: g is
// initial, g is t's own, or g happens-before one of t's events. The
// per-configuration determinate-value assertions ask about exactly one
// event (the last write), so building the full cone per query was pure
// overhead.
func (s *State) InHBCone(t event.Thread, g event.Tag) bool {
	e := s.events[int(g)]
	if e.isInit() || e.thread() == t {
		return true
	}
	last := s.threadEvs(t).Max()
	if last < 0 {
		return false
	}
	// hb is monotone along sb, so "g happens-before some event of t"
	// collapses to one membership test against the last event's
	// predecessor row.
	s.memo.mu.Lock()
	defer s.memo.mu.Unlock()
	return s.hbLocked().Row(last).Test(int(g))
}

// HBCone returns σ.hbc(t) = I_σ ∪ {e | ∃e'. tid(e') = t ∧ (e, e') ∈
// hb?} — the happens-before cone of t (Appendix B). Determinate-value
// assertions require the last write to lie in this cone. Initials and
// t's events come from the per-thread index.
func (s *State) HBCone(t event.Thread) bits.Set {
	n := len(s.events)
	out := bits.New(n)
	out.Or(s.threadEvs(event.InitThread)) // I_σ (thread 0 only writes)
	tEvents := s.threadEvs(t)
	out.Or(tEvents) // (e,e) ∈ hb? with tid(e)=t
	last := tEvents.Max()
	if last < 0 {
		return out
	}
	// By sb-monotonicity of hb, the cone is the last event's
	// predecessor row — one word-parallel union instead of an
	// intersection test per event.
	s.memo.mu.Lock()
	out.Or(s.hbLocked().Row(last))
	s.memo.mu.Unlock()
	return out
}
