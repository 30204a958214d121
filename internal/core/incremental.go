package core

// This file is the incremental derived-order engine. A transition
// σ --(w,e)-->_RA σ' changes the state by exactly one event g := e and
// at most three edge groups: sb gains P×{g} for the sb-predecessors P
// of g, rf may gain (w,g), and mo may be spliced to mo[w,g]. Every new
// edge is incident to g, and g is sb/sw-maximal, so the derived
// closures of σ' are the closures of σ extended by g's row and column
// alone — no pair between old events changes:
//
//   - hb:  g has no outgoing sb/sw edge, so hb' = hb ∪ (reach⁻¹(g) × {g})
//     where reach⁻¹(g) = {i | i ∈ D ∨ hb[i] ∩ D ≠ ∅} for the direct
//     predecessors D (sb-predecessors, plus w when (w,g) synchronises).
//   - eco: g's direct successors are the old mo-successors of w in
//     every rule (mo and fr edges out of a spliced write/update, fr
//     edges out of a read), and its direct predecessors are w (rf) and,
//     under a splice, mo⁺w = {w} ∪ mo⁻¹[w] together with their rf
//     readers (fr). A path between old events through g would factor
//     through v ⊑_mo w <_mo k, which eco already contained, so old
//     pairs are untouched.
//   - comb = eco?;hb?: old pairs are compositions of old pairs; g's
//     row and column follow from the hb/eco extensions above.
//
// (CW gains at most {w}, when g is an update; it is not derived but
// kept as a row of the index block, which rule RMW edits at build
// time.) The engine therefore inherits the parent's memoised
// hb/eco/comb and propagates only g's edges, at O(n²/64) word
// operations per state instead of the O(n³/64) Floyd–Warshall
// closures the scratch path pays. When the extension is g's row alone — always for hb, and for
// eco and comb when w is mo-maximal — it needs no copy at all: the
// first such successor extends the parent's closure in place by
// winning its claim (Rel.Extend; state.go's type comment has the
// aliasing rules), and the others copy it. The scratch path
// survives for root states and for the audit mode: AuditIncremental
// recomputes everything from first principles and reports any
// disagreement (explore.Audit's unreduced search counts these; the
// expected count is zero).

import (
	"fmt"

	"repro/internal/bits"
	"repro/internal/event"
	"repro/internal/fingerprint"
	"repro/internal/relation"
)

// incProvenance links a successor to the parent it was derived from:
// the appended event g, the observed write w, the stepping thread, and
// which edge groups the rule added. parent is cleared once hb, eco and
// comb have all been inherited, which every enumeration of a memory
// step forces (observability is read off comb), so an expanded state
// pins no ancestor and an unexpanded one pins at most its parent.
type incProvenance struct {
	parent   *State
	g        int          // index of the event this step appended
	w        int          // index of the observed write (in the parent)
	t        event.Thread // the stepping thread
	rfEdge   bool         // rf gained (w, g): READ and RMW
	moSplice bool         // mo became mo[w, g]: WRITE and RMW
}

// linkParent records the provenance of a freshly-built successor.
func (s *State) linkParent(parent *State, g int, w event.Tag, t event.Thread, rfEdge, moSplice bool) {
	s.inc = incProvenance{
		parent: parent, g: g, w: int(w), t: t,
		rfEdge: rfEdge, moSplice: moSplice,
	}
}

// hbRef, ecoRef and combRef return the state's memoised derived
// closures, computing them first if needed. The returned values are
// immutable once memoised, so a child may read them after the parent's
// lock is released — and, having won the parent's claim, write the one
// row past their end (Rel.Extend). Lock order is strictly child →
// parent, and parents never lock children, so the order is acyclic.

func (s *State) hbRef() *relation.Rel {
	s.memo.mu.Lock()
	defer s.memo.mu.Unlock()
	return s.hbLocked()
}

func (s *State) ecoRef() *relation.Rel {
	s.memo.mu.Lock()
	defer s.memo.mu.Unlock()
	return s.ecoLocked()
}

func (s *State) combRef() *relation.Rel {
	s.memo.mu.Lock()
	defer s.memo.mu.Unlock()
	return s.combLocked()
}

// maybeDetachLocked drops the parent link once every derived closure
// has been inherited, releasing the ancestor State (its shell, index
// block and memo sets). What the successor shares with it — a prefix
// of its event list or closures, extended in place — stays reachable
// through the successor's own slices. The derivations are split per closure —
// a configuration only visited by a property check typically needs hb
// alone, and deriving eco/comb for it would triple the cost of the
// frontier.
func (s *State) maybeDetachLocked() {
	if s.memo.hbOK && s.memo.ecoOK && s.memo.combOK {
		s.inc.parent = nil
	}
}

// deriveHBLocked computes hb' = hb ∪ reach⁻¹(g) × {g} from the
// parent's memoised (transposed) hb. The direct predecessors of g are
// its sb-predecessors — the parent's events of the stepping thread
// and the initialising writes — plus w when the new rf edge
// synchronises (sw = rf ∩ (WrR × RdA)). g itself is hb-maximal: every
// new sb/sw edge ends at g, so no pair between old events changes —
// and in predecessor orientation the whole extension is one row,
// assembled by word-parallel unions. Initialising writes have no
// hb-predecessors, and the stepping thread's earlier events fold into
// its sb-last event's row (hb is monotone along sb), so three row
// unions suffice where the row-major form walked and wrote every
// predecessor row.
func (s *State) deriveHBLocked(p *State) {
	phb := p.hbRef()
	g, w := s.inc.g, s.inc.w

	hb := phb.Extend(&p.tails.hb)
	hb.UnionRow(g, p.threadEvs(event.InitThread))
	tEvs := p.threadEvs(s.inc.t)
	if last := tEvs.Max(); last >= 0 {
		hb.UnionRow(g, tEvs)
		hb.UnionRow(g, phb.Row(last))
	}
	if s.inc.rfEdge && s.events[w].releasing() && s.events[g].acquiring() {
		hb.Add(g, w)
		hb.UnionRow(g, phb.Row(w))
	}
	s.memo.hbP = hb
	s.memo.hbOK = true
	s.maybeDetachLocked()
}

// deriveECOLocked extends the parent's memoised eco. g's direct
// successors are the old mo-successors of w in every rule — the
// targets of the mo and fr edges out of a spliced write or update, and
// of the fr edges out of a read. Its direct predecessors are w along
// the new rf edge and, under a splice, mo⁺w = {w} ∪ mo⁻¹[w] together
// with every rf reader of a write in mo⁺w (new fr edges). A path
// between old events through g would factor through v ⊑_mo w <_mo k,
// which eco already contained, so old pairs are untouched.
// In predecessor orientation the incoming side (g's eco-predecessors:
// w, mo⁺w and its readers, and their own predecessors) is one row; the
// outgoing side (g precedes the old mo-successors of w and their
// eco-successors) touches old rows, but only when w is not mo-maximal
// — the common case (reading or splicing after the latest write to the
// variable) leaves every old row as inherited, so only then may the
// extension claim the parent's closure in place.
func (s *State) deriveECOLocked(p *State) {
	peco := p.ecoRef()
	n := len(s.events)
	g, w := s.inc.g, s.inc.w
	moSucc := p.mo.Row(w)

	eco := peco.Extend(rowOnlyClaim(&p.tails.eco, moSucc))
	direct := s.alloc.NewSet(n)
	direct.Set(w) // every rule observes w through rf or an mo splice
	if s.inc.moSplice {
		// mo⁺w, then the readers of its writes: the parent's reads of
		// w's variable whose rf source is in mo⁺w.
		x := s.events[w].x
		xs := p.varWrites(int(x))
		for vi := xs.Next(0); vi >= 0; vi = xs.Next(vi + 1) {
			if p.mo.Has(vi, w) {
				direct.Set(vi)
			}
		}
		for j, e := range p.events {
			if e.isRead() && e.x == x && (int(e.rf) == w || p.mo.Has(int(e.rf), w)) {
				direct.Set(j)
			}
		}
	}
	eco.UnionRow(g, direct)
	for d := direct.Next(0); d >= 0; d = direct.Next(d + 1) {
		eco.UnionRow(g, peco.Row(d))
	}
	if !moSucc.Empty() {
		for j := 0; j < g; j++ {
			if moSucc.Test(j) || peco.Row(j).Intersects(moSucc) {
				eco.Add(j, g)
			}
		}
	}
	s.memo.ecoP = eco
	s.memo.ecoOK = true
	s.maybeDetachLocked()
}

// deriveCombLocked extends the parent's memoised (transposed)
// comb = eco? ; hb?. Old pairs are compositions of old pairs and stay
// unchanged. The new predecessor row is assembled by unions alone:
//
//	combP'[g] = {g} ∪ ecoP'[g] ∪ hbP'[g] ∪ combP[lastT] ∪ (combP[w] if sw)
//
// The definitional fold ⋃ ecoP[m] over every hb-predecessor m of g
// collapses because comb is monotone along hb (comb(i,m) ∧ hb(m,g) ⟹
// comb(i,g)): each m is the stepping thread's sb-last event lastT,
// the synchronising write w, an initialising write, or an
// hb-predecessor of one of those, so its contribution is inside
// combP[lastT] ∪ combP[w] — initialising writes have no eco- or
// hb-predecessors, and their singleton rows sit inside hbP'[g]. The
// reverse inclusion is hb-monotonicity again. The audit
// (AuditIncremental) checks this derivation against the definitional
// composition on every explored state under -audit.
//
// Old rows change only when g has eco-successors (w not mo-maximal):
// those rows — K and its hb-successors — gain the bit g.
func (s *State) deriveCombLocked(p *State) {
	pcomb := p.combRef()
	n := len(s.events)
	g, w := s.inc.g, s.inc.w
	hb := s.hbLocked()
	eco := s.ecoLocked()
	moSucc := p.mo.Row(w)

	comb := pcomb.Extend(rowOnlyClaim(&p.tails.comb, moSucc))
	comb.Add(g, g)
	comb.UnionRow(g, eco.Row(g))
	comb.UnionRow(g, hb.Row(g))
	tEvs := p.threadEvs(s.inc.t)
	if last := tEvs.Max(); last >= 0 {
		comb.UnionRow(g, pcomb.Row(last))
	}
	if s.inc.rfEdge && s.events[w].releasing() && s.events[g].acquiring() {
		comb.UnionRow(g, pcomb.Row(w))
	}

	if !moSucc.Empty() {
		// g's eco-successors K are exactly the old rows that gained g
		// in deriveECOLocked; g reaches them and their hb-successors.
		k := s.alloc.NewSet(n)
		for j := 0; j < g; j++ {
			if eco.Has(j, g) {
				k.Set(j)
			}
		}
		for j := 0; j < g; j++ {
			if k.Test(j) || hb.Row(j).Intersects(k) {
				comb.Add(j, g)
			}
		}
	}
	s.memo.combP = comb
	s.memo.combOK = true
	s.maybeDetachLocked()
}

// rowOnlyClaim returns the claim an eco or comb extension may try for:
// c when w has no mo-successors (moSucc, w's row of the parent's mo, is
// empty), so the extension writes g's row alone, and nil — always copy
// — when it must also add g to old rows.
func rowOnlyClaim(c *relation.Claim, moSucc bits.Set) *relation.Claim {
	if moSucc.Empty() {
		return c
	}
	return nil
}

// AuditIncremental recomputes every derived order and maintained index
// from first principles and compares them with the incrementally
// maintained values, returning one description per mismatch. It is the
// correctness guard behind explore.Audit and the -audit flag of
// c11 explore and c11 verify; the expected result is always empty.
func (s *State) AuditIncremental() []string {
	var bad []string
	report := func(format string, args ...any) {
		bad = append(bad, fmt.Sprintf(format, args...))
	}

	s.memo.mu.Lock()
	hb := s.hbLocked()
	eco := s.ecoLocked()
	comb := s.combLocked()
	s.memo.mu.Unlock()

	sHB := s.scratchHB()
	if !hb.Equal(sHB) {
		report("hb: incremental %s != scratch %s", hb, sHB)
	}
	sECO := s.scratchECO()
	if !eco.Equal(sECO) {
		report("eco: incremental %s != scratch %s", eco, sECO)
	}
	sComb := scratchComb(sECO, sHB)
	if !comb.Equal(sComb) {
		report("comb: incremental %s != scratch %s", comb, sComb)
	}
	if cw, sCW := s.coveredRow(), s.scratchCW(); !cw.Equal(sCW) {
		report("cw: maintained %s != scratch %s", cw, sCW)
	}

	// sb is reconstructible from the event list: a program event j is
	// preceded exactly by the earlier events of its own thread and of
	// thread 0; initialising writes are sb-unordered among themselves.
	// Reconstructed directly in predecessor orientation (row j =
	// sb-predecessors of j) and compared with the index-derived sb.
	n := len(s.events)
	sSB := relation.New(n)
	for j := 0; j < n; j++ {
		if s.events[j].tid == int16(event.InitThread) {
			continue
		}
		for i := 0; i < j; i++ {
			if s.events[i].tid == s.events[j].tid || s.events[i].tid == int16(event.InitThread) {
				sSB.Add(j, i)
			}
		}
	}
	if sbP := s.sbPred(); !sbP.Equal(sSB) {
		report("sb: index-derived %s != reconstructed %s", sbP, sSB)
	}

	// Per-thread EW/OW against the scratch kernel.
	for t := event.Thread(0); int(t) < s.nthr; t++ {
		ewS := s.scratchEW(&sComb, t)
		if ew := s.EncounteredWrites(t); !ew.Equal(ewS) {
			report("ew(%d): memoised %s != scratch %s", t, ew, ewS)
		}
		owS := s.scratchOW(ewS)
		if ow := s.ObservableWrites(t); !ow.Equal(owS) {
			report("ow(%d): memoised %s != scratch %s", t, ow, owS)
		}
	}

	// Index rows against event scans.
	wr := bits.New(n)
	byVar := make([]bits.Set, len(s.names))
	byThread := make([]bits.Set, s.nthr)
	for i := range byVar {
		byVar[i] = bits.New(n)
	}
	for i := range byThread {
		byThread[i] = bits.New(n)
	}
	for i, e := range s.events {
		if int(e.tid) >= s.nthr || e.tid < 0 {
			report("threads: event %d of thread %d has no index row (%d rows)", i, e.tid, s.nthr)
			continue
		}
		byThread[e.tid].Set(i)
		// The stored canonical position is the event's rank in its
		// thread's row.
		if r := s.threadEvs(e.thread()).Rank(i); int(e.pos) != r {
			report("pos: event %d stores position %d, its thread row ranks it %d", i, e.pos, r)
		}
		if e.isWrite() {
			wr.Set(i)
			byVar[e.x].Set(i)
		}
	}
	if !s.writesRow().Equal(wr) {
		report("writes: maintained %s != scan %s", s.writesRow(), wr)
	}
	for t, want := range byThread {
		if got := s.threadEvs(event.Thread(t)); !got.Equal(want) {
			report("threads[%d]: maintained %s != scan %s", t, got, want)
		}
	}
	for x, want := range byVar {
		if got := s.varWrites(x); !got.Equal(want) {
			report("writes[%s]: maintained %s != scan %s", s.names[x], got, want)
		}
		// σ.last(x) is the unique write to x with no mo successor.
		lw := int(s.LastOf(x))
		if !want.Test(lw) {
			report("lastW[%s]: %d is not a write to %s", s.names[x], lw, s.names[x])
			continue
		}
		for g := want.Next(0); g >= 0; g = want.Next(g + 1) {
			if s.mo.Has(lw, g) {
				report("lastW[%s]: %d has mo successor %d", s.names[x], lw, g)
			}
		}
	}

	// The fingerprint accumulator, extended item by item as events and
	// pairs are added, against the from-scratch canonical hash.
	if fp, want := s.Fingerprint(), fingerprint.Canonical(s.Events(), s.RF(), s.mo); fp != want {
		report("fingerprint: maintained %x != canonical %x", fp, want)
	}
	return bad
}
