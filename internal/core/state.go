// Package core implements the paper's primary contribution: the
// operational semantics for the RAR fragment of C11 (§3).
//
// A C11 state is a triple ((D, sb), rf, mo) of an event set with
// sequenced-before, reads-from and modification-order relations
// (Definition 3.1). The event semantics (Figure 3) adds one event per
// step, validating reads on the fly against the per-thread observable
// writes derived from the encountered-write set — the paper's central
// notion of observability (§3.2). The interpreted semantics (§3.3)
// couples this with the uninterpreted command semantics of
// internal/lang.
package core

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"repro/internal/bits"
	"repro/internal/event"
	"repro/internal/fingerprint"
	"repro/internal/relation"
)

// State is a C11 state ((D, sb), rf, mo). States are immutable once
// built: the transition functions return new states. Derived orders
// (sw, hb, fr, eco), the per-thread observability sets and the
// canonical fingerprint are memoised on first use, guarded by a mutex
// because silent program steps share the state between configurations
// that a parallel explorer may expand concurrently.
//
// A state is nearly pointer-free. D is a slice of compact records
// (evRec) that name their variable by id and carry a read's rf source;
// the variable names live in one table shared by every state of a
// program. sb is not stored: a program event is preceded exactly by
// the initialising writes and its own thread's earlier events
// (Figure 3's (D, sb) + e), so sb is read off the per-thread index.
// rf is not stored either: it is the records' rf fields. mo is a flat
// word slab (relation.Rel), and the indexes are rows of one word block
// (idx): Wr ∩ D, CW_σ, the writes of each variable and the events of
// each thread. A successor copies its parent's mo and index block into
// one slab its allocator carves per state and edits them in place. It
// also records its provenance (the inc field) so the derived closures
// hb/eco/comb are not recomputed from scratch but inherited from the
// parent's memoised closures and extended by the new event's edges
// alone — see incremental.go.
//
// Lifetime: the provenance link is dropped as soon as hb, eco and comb
// are inherited, and enumerating any memory step derives all three
// (observability is read off comb). So an unexpanded state pins at
// most its parent, and an expanded one pins no ancestor: a silent step
// shares the state with its successor configuration, whose expansion
// enumerates the memory steps. The live states of a search are its
// frontier and their parents, not the chains behind them.
//
// D and the memoised hbP/ecoP/combP are append-only histories, and a
// successor shares them with its parent where it can. Each is
// allocated with spare capacity, and each state holds a one-shot claim
// per history (the tails field). A successor extends its parent's
// backing in place when its new data is exactly one appended row (or
// event), the row stride is unchanged, and it wins the parent's claim;
// otherwise it copies (relation.Extend, Rel.Extend). The aliasing
// invariants: the rows (events) below a state's n are immutable once
// the state is published; only the claim winner writes row n; and a
// claimer keeps its claim even when nobody keeps the claimer, so its
// siblings copy.
type State struct {
	events []evRec // D; index is the event's Tag
	// names maps a variable id to its name. Init sorts the variables
	// and writes them in that order, so a variable's id is the tag of
	// its initialising write. Shared by all states of a program.
	names []event.Var
	mo    relation.Rel // modification order (Wr × Wr), row-major

	// idx is the eagerly-maintained index block, carved from alloc and
	// immutable once the building step returns. With nv variables and
	// a row stride of ceil(|D|/64) words it holds
	//
	//	words [0, nv)          lastW: σ.last(x), the mo-maximal write, per variable id
	//	row 0                  Wr ∩ D
	//	row 1                  CW_σ: the writes an update reads from
	//	rows 2 .. nv+1         the writes to each variable id
	//	rows nv+2 .. nv+1+nthr the events of each thread id, from thread 0
	//
	// It replaces the full-event rescans of EncounteredWrites, HBCone,
	// Last, WritesTo, CoveredWrites and sb.
	idx  []uint64
	nthr int // thread rows in idx: thread ids 0 .. nthr-1

	// inc links a successor to the parent it was derived from, until
	// the derived orders have been inherited (see incremental.go).
	inc incProvenance

	// alloc backs this state's mo, index block and memo sets, normally
	// out of one slab. Embedded so a successor costs one fewer
	// allocation; carving happens only while the state is being built
	// (single goroutine) and later under memo.mu (the derive*Locked
	// functions of incremental.go).
	alloc relation.Allocator

	// tails holds the one-shot claims on the spare capacity of this
	// state's events and memoised closures: the first successor to
	// extend one of them in place wins it (see the type comment).
	tails struct{ events, hb, eco, comb relation.Claim }

	// fpAcc is the eagerly-maintained canonical fingerprint
	// accumulator: a commutative multiset hash over the events and
	// rf/mo pairs under the (thread, position-in-thread) renaming of
	// CanonicalSignature. Appending an event never changes the
	// canonical name of an existing one, so a successor's identity is
	// the parent's accumulator plus the new event's items — the
	// explorer's deduplication key costs O(new edges) per state instead
	// of an O(n + pairs) canonical rehash.
	fpAcc fingerprint.Acc

	memo struct {
		mu        sync.Mutex
		hbP, ecoP relation.Rel // transposed closures: row g = predecessors of g
		combP     relation.Rel // (eco? ; hb?)⁻¹ — thread-independent EW kernel
		hbOK      bool
		ecoOK     bool
		combOK    bool
		// obs holds EW_σ(t) and OW_σ(t) for the thread ids below nthr,
		// carved on the first query: obsFlagWords(nthr) words flag the
		// computed rows, then nthr EW rows, then nthr OW rows.
		obs []uint64
	}
}

// evRec is one event of D: its kind, variable id, thread, canonical
// position, values and, for a read or update, its rf source. It is
// pointer-free, so event slices are neither scanned by the garbage
// collector nor copied with write barriers. Event rebuilds the
// event.Event with the variable's name.
type evRec struct {
	rval, wval event.Val
	x          int32 // variable id: the tag of x's initialising write
	// rf is the tag of the write a read or update reads from (its
	// unique rf-predecessor); unused for plain writes. A tag is below
	// |D|, which int32 holds for any state that fits in memory.
	rf int32
	// pos is the event's canonical position (posOf), fixed when the
	// event is appended: appending never renames an existing event.
	pos  int32
	tid  int16 // at most maxThread
	kind event.Kind
}

// maxThread bounds the thread ids a state accepts: the index block
// holds a row per thread id up to the largest one seen.
const maxThread = 1<<10 - 1

// newRec packs an event record. The variable id is narrowed to int32
// and the thread id to int16; an id that does not fit is a programming
// error (the step rules reject thread ids above maxThread, and variable
// ids are tags of the initialising writes), so it panics rather than
// truncate. grow and Init set the position.
func newRec(k event.Kind, x int, t event.Thread, rval, wval event.Val) evRec {
	if int(int32(x)) != x || int(int16(t)) != int(t) {
		panic(fmt.Sprintf("core: event ids out of range: variable %d, thread %d", x, t))
	}
	return evRec{rval: rval, wval: wval, x: int32(x), tid: int16(t), kind: k}
}

// from sets the rf source of a read or update record.
func (e evRec) from(w event.Tag) evRec {
	e.rf = int32(w)
	return e
}

func (e evRec) thread() event.Thread { return event.Thread(e.tid) }
func (e evRec) isRead() bool         { return e.kind.IsRead() }
func (e evRec) isWrite() bool        { return e.kind.IsWrite() }
func (e evRec) isUpdate() bool       { return e.kind.IsUpdate() }
func (e evRec) isInit() bool         { return e.tid == int16(event.InitThread) && e.isWrite() }
func (e evRec) releasing() bool      { return e.kind.Releasing() }
func (e evRec) acquiring() bool      { return e.kind.Acquiring() }

// action rebuilds the action of e with its variable's name.
func (s *State) action(e evRec) event.Action {
	return event.Action{Kind: e.kind, Loc: s.names[e.x], RVal: e.rval, WVal: e.wval}
}

// stride returns the words per index row of an n-event carrier.
func stride(n int) int { return (n + 63) >> 6 }

// row returns index row r as a set over the state's carrier (a view of
// the block; mutate only while building the state).
func (s *State) row(r int) bits.Set {
	n := len(s.events)
	st := stride(n)
	off := len(s.names) + r*st
	return bits.FromWords(s.idx[off:off+st:off+st], n)
}

// fixedRows is the number of index rows before the per-variable write
// rows: Wr ∩ D and CW_σ.
const fixedRows = 2

// indexRows is the number of index rows for nv variables and nthr
// thread rows.
func indexRows(nv, nthr int) int { return fixedRows + nv + nthr }

// indexWords is the size of the index block for nv variables, nthr
// thread rows and an n-event carrier.
func indexWords(nv, nthr, n int) int { return nv + indexRows(nv, nthr)*stride(n) }

// obsFlagWords is the number of flag words of the EW/OW memo.
func obsFlagWords(nthr int) int { return (2*nthr + 63) >> 6 }

// slabWords is what a state carves beyond its relations: the index
// block, the EW/OW memo and the two scratch sets of the eco and comb
// extensions.
func slabWords(nv, nthr, n int) int {
	st := stride(n)
	return indexWords(nv, nthr, n) + obsFlagWords(nthr) + (2*nthr+2)*st
}

// writesRow returns Wr ∩ D; coveredRow returns CW_σ; varWrites returns
// the writes to variable id x in tag order. All alias the index; do
// not mutate.
func (s *State) writesRow() bits.Set      { return s.row(0) }
func (s *State) coveredRow() bits.Set     { return s.row(1) }
func (s *State) varWrites(x int) bits.Set { return s.row(fixedRows + x) }

// threadEvs returns the event set of thread t (the zero set when t has
// no events). The result aliases the index; do not mutate.
func (s *State) threadEvs(t event.Thread) bits.Set {
	if t < 0 || int(t) >= s.nthr {
		return bits.Set{}
	}
	return s.row(fixedRows + len(s.names) + int(t))
}

// VarID returns the id of variable x: its index in the variable table
// every state derived from one Init shares, which is also the tag of
// its initialising write. The id-based accessors (LastOf, UpdateOnlyOf)
// let a caller that asks about the same variable many times resolve
// its name once.
func (s *State) VarID(x event.Var) (int, bool) {
	return slices.BinarySearch(s.names, x)
}

// VarTable identifies a variable table: states with equal VarTables
// have the same variables, so a variable's id in one is its id in the
// other. Every state derived from one Init shares its table. A
// VarTable keeps its table alive, so it is never mistaken for a later
// one at the same address.
type VarTable struct {
	names *event.Var
	n     int
}

// VarTable returns the identity of s's variable table.
func (s *State) VarTable() VarTable {
	if len(s.names) == 0 {
		return VarTable{}
	}
	return VarTable{names: &s.names[0], n: len(s.names)}
}

// LastOf returns σ.last(x) for the variable with id x.
func (s *State) LastOf(x int) event.Tag { return event.Tag(s.idx[x]) }

// WriteValue returns the value written by event g, without rebuilding
// the event (zero for a pure read).
func (s *State) WriteValue(g event.Tag) event.Val { return s.events[g].wval }

// Init returns an initial state σ₀ = ((I, ∅), ∅, ∅) with one
// initialising write per variable (§3.1). Variables are sorted so that
// equal initialisations produce identical tag assignments; the sorted
// names become the variable table of every state derived from this
// one.
func Init(vars map[event.Var]event.Val) *State {
	names := make([]event.Var, 0, len(vars))
	for x := range vars {
		names = append(names, x)
	}
	slices.Sort(names)

	n := len(names)
	s := &State{
		events: make([]evRec, 0, n),
		names:  names,
		mo:     relation.New(n),
		nthr:   1,
	}
	s.alloc.Init(n, slabWords(n, 1, n))
	s.events = s.events[:n]
	s.idx = s.alloc.Words(indexWords(n, 1, n))
	wr, init := s.writesRow(), s.threadEvs(event.InitThread)
	for i, x := range names {
		s.events[i] = newRec(event.WrX, i, event.InitThread, 0, vars[x])
		s.events[i].pos = int32(i)
		s.idx[i] = uint64(i)
		wr.Set(i)
		init.Set(i)
		xs := s.varWrites(i)
		xs.Set(i)
		// Canonical position of an initialising write is its index in
		// the variable-sorted order — exactly the construction order.
		s.fpAcc.Add(fingerprint.EventItem(event.InitThread, i, s.action(s.events[i])))
	}
	return s
}

// NumEvents returns |D|.
func (s *State) NumEvents() int { return len(s.events) }

// Event returns the event with the given tag.
func (s *State) Event(g event.Tag) event.Event {
	e := s.events[int(g)]
	return event.Event{Tag: g, Act: s.action(e), TID: e.thread()}
}

// Events returns a copy of D in tag order.
func (s *State) Events() []event.Event {
	out := make([]event.Event, len(s.events))
	for i := range s.events {
		out[i] = s.Event(event.Tag(i))
	}
	return out
}

// sbPred derives sequenced-before from the per-thread index, in
// predecessor orientation: row j holds the sb-predecessors of j — the
// initialising writes and the earlier events of j's thread.
func (s *State) sbPred() relation.Rel {
	n := len(s.events)
	out := relation.New(n)
	init := s.threadEvs(event.InitThread)
	for t := 1; t < s.nthr; t++ {
		evs := s.threadEvs(event.Thread(t))
		for j := evs.Next(0); j >= 0; j = evs.Next(j + 1) {
			out.UnionRow(j, init)
			for i := evs.Next(0); i < j; i = evs.Next(i + 1) {
				out.Add(j, i)
			}
		}
	}
	return out
}

// SB returns sequenced-before, derived from the per-thread index.
func (s *State) SB() relation.Rel { return s.sbPred().Converse() }

// RF returns the reads-from relation, built from the records' rf
// sources.
func (s *State) RF() relation.Rel {
	out := relation.New(len(s.events))
	for j, e := range s.events {
		if e.isRead() {
			out.Add(int(e.rf), j)
		}
	}
	return out
}

// MO returns a copy of the modification order.
func (s *State) MO() relation.Rel { return s.mo.Clone() }

// sbHas etc. give cheap read access without cloning.

// SBHas reports (a, b) ∈ sb: b is a program event and a is an earlier
// initialising write or an earlier event of b's thread.
func (s *State) SBHas(a, b event.Tag) bool {
	if a < 0 || a >= b || int(b) >= len(s.events) {
		return false
	}
	ta, tb := s.events[a].tid, s.events[b].tid
	return tb != int16(event.InitThread) && (ta == int16(event.InitThread) || ta == tb)
}

// RFHas reports (a, b) ∈ rf: b is a read or update whose source is a.
func (s *State) RFHas(a, b event.Tag) bool {
	if uint(a) >= uint(len(s.events)) || uint(b) >= uint(len(s.events)) {
		return false
	}
	e := s.events[b]
	return e.isRead() && e.rf == int32(a)
}

// MOHas reports (a, b) ∈ mo.
func (s *State) MOHas(a, b event.Tag) bool { return s.mo.Has(int(a), int(b)) }

// Writes returns the set of write events Wr ∩ D (includes updates and
// initialising writes) as tags. The set is maintained incrementally on
// every step, so this is a copy, not a scan.
func (s *State) Writes() bits.Set { return s.writesRow().Clone() }

// WritesTo returns the tags of writes to variable x in tag order
// (unsorted by mo; use Last or MO for ordering). Served from the
// per-variable write index.
func (s *State) WritesTo(x event.Var) []event.Tag {
	id, ok := s.VarID(x)
	if !ok {
		return nil
	}
	return appendTags(nil, s.varWrites(id))
}

// appendTags appends the members of set to dst as tags, in order.
func appendTags(dst []event.Tag, set bits.Set) []event.Tag {
	for i := set.Next(0); i >= 0; i = set.Next(i + 1) {
		dst = append(dst, event.Tag(i))
	}
	return dst
}

// Initials returns I_σ = D ∩ IWr.
func (s *State) Initials() []event.Tag {
	return appendTags(make([]event.Tag, 0, len(s.names)), s.threadEvs(event.InitThread))
}

// InitialFor returns the initialising write to x: its tag is x's id.
func (s *State) InitialFor(x event.Var) (event.Tag, bool) {
	id, ok := s.VarID(x)
	return event.Tag(id), ok
}

// Vars returns the variables written anywhere in the state, sorted:
// every variable has an initialising write.
func (s *State) Vars() []event.Var { return slices.Clone(s.names) }

// ThreadEvents returns the tags of thread t's events in sb order
// (which coincides with tag order since events are appended).
func (s *State) ThreadEvents(t event.Thread) []event.Tag {
	evs := s.threadEvs(t)
	return appendTags(make([]event.Tag, 0, evs.Count()), evs)
}

// grow returns the successor in which thread t appends event e — the
// (D, sb) + e of Figure 3 — with mo still to be extended by the caller.
// The event list extends the parent's in place when the successor wins
// the parent's events claim, and is copied otherwise. mo and the index
// block are copied into the successor's own allocator (one memmove
// each, or one per row when the row stride grows) and the index is
// then edited in place: e joins its thread's row and, for a write, the
// write rows; rule RMW then adds the write it reads to the CW row. sb
// needs no edit: it is derived from the thread rows. The memoised
// orders are left to be inherited through the inc provenance set by
// the caller.
func (s *State) grow(t event.Thread, e evRec) *State {
	n := len(s.events) + 1
	g := n - 1
	nv := len(s.names)
	out := new(State)
	out.events = relation.Extend(s.events, &s.tails.events)
	out.names = s.names
	out.nthr = max(s.nthr, int(t)+1)
	out.fpAcc = s.fpAcc
	out.alloc.Init(n, slabWords(nv, out.nthr, n))
	out.mo = s.mo.GrowAlloc(n, &out.alloc)
	out.idx = out.alloc.Words(indexWords(nv, out.nthr, n))
	if ps, st := stride(n-1), stride(n); ps == st {
		copy(out.idx, s.idx)
	} else {
		copy(out.idx[:nv], s.idx[:nv])
		for r := 0; r < indexRows(nv, s.nthr); r++ {
			copy(out.idx[nv+r*st:], s.idx[nv+r*ps:nv+(r+1)*ps])
		}
	}
	tEvs := out.threadEvs(t)
	pos := tEvs.Count()
	tEvs.Set(g)
	e.pos = int32(pos)
	out.events[g] = e
	if e.isWrite() {
		wr, xs := out.writesRow(), out.varWrites(int(e.x))
		wr.Set(g)
		xs.Set(g)
	}
	out.fpAcc.Add(fingerprint.EventItem(t, pos, out.action(e)))
	return out
}

// Fingerprint returns a 128-bit canonical identity of the state up to
// the interleaving that built it — the binary, allocation-free
// equivalent of CanonicalSignature (same renaming, same identified
// states, modulo hash collisions over the 128-bit key). The underlying
// multiset accumulator is maintained incrementally as events and edges
// are added, so this is a finalisation, not a computation. The
// explorer keys its seen-set by this value; CanonicalSignature remains
// the exact slow path behind the collision-checking debug option.
func (s *State) Fingerprint() fingerprint.FP {
	return fingerprint.Finalize(s.fpAcc, len(s.events))
}

// posOf returns the canonical position of event g: its index within
// its thread's event sequence (for initialising writes, the
// variable-sorted index — which coincides with tag order). It is
// stored in the record when the event is appended.
func (s *State) posOf(g int) int { return int(s.events[g].pos) }

// notePair accumulates a new rf/mo pair (a, b) into the fingerprint;
// both events must already be indexed.
func (s *State) notePair(label uint64, a, b int) {
	s.fpAcc.Add(fingerprint.PairItem(label,
		s.events[a].thread(), s.posOf(a),
		s.events[b].thread(), s.posOf(b)))
}

// succFingerprint predicts the Fingerprint of the successor in which
// thread t appends action a observing write w, without building it:
// the parent's accumulator plus the new event's item, the rf pair
// (w, e) of a read or update, and the mo pairs insertMO adds for a
// write or update — mo⁺w × {e} and {e} × mo[w]. Appending an event
// renames no existing one, so every item is computable from the
// parent's indexes; the new event's position is the number of events
// t already has.
func (s *State) succFingerprint(t event.Thread, a event.Action, w event.Tag) fingerprint.FP {
	acc := s.fpAcc
	wi := int(w)
	pos := s.threadEvs(t).Count()
	acc.Add(fingerprint.EventItem(t, pos, a))
	if a.Kind.IsRead() {
		acc.Add(fingerprint.PairItem(fingerprint.LabelRF, s.events[wi].thread(), s.posOf(wi), t, pos))
	}
	if a.Kind.IsWrite() {
		xs := s.varWrites(int(s.events[wi].x))
		for vi := xs.Next(0); vi >= 0; vi = xs.Next(vi + 1) {
			if vi == wi || s.mo.Has(vi, wi) {
				acc.Add(fingerprint.PairItem(fingerprint.LabelMO, s.events[vi].thread(), s.posOf(vi), t, pos))
			}
		}
		row := s.mo.Row(wi)
		for j := row.Next(0); j >= 0; j = row.Next(j + 1) {
			acc.Add(fingerprint.PairItem(fingerprint.LabelMO, t, pos, s.events[j].thread(), s.posOf(j)))
		}
	}
	return fingerprint.Finalize(acc, len(s.events)+1)
}

// Signature returns a canonical string identifying the state up to
// event identity: the event list plus the rf and mo relations (sb is
// determined by the event order and thread structure). Tag order —
// i.e. the interleaving that built the state — is visible in this
// signature; use CanonicalSignature to identify states up to
// interleaving.
func (s *State) Signature() string {
	var b strings.Builder
	for _, e := range s.events {
		fmt.Fprintf(&b, "%d:%s|", e.tid, s.action(e))
	}
	b.WriteString("rf")
	b.WriteString(s.RF().String())
	b.WriteString("mo")
	b.WriteString(s.mo.String())
	return b.String()
}

// CanonicalSignature identifies the state up to the interleaving that
// built it: events are renamed to (thread, position-in-thread) — with
// initialising writes ordered by variable — and rf/mo are printed over
// the renamed events. Two interleavings of the same per-thread event
// sequences producing the same relations share a canonical signature;
// by Propositions 2.3/4.1 such states also have identical futures, so
// the explorer deduplicates by it (a symmetry reduction the
// operational semantics enables: a state is a C11 state, not an
// interleaving) — through its 128-bit hash, Fingerprint, which the
// collision audit of explore.Audit checks against this exact key.
func (s *State) CanonicalSignature() string {
	return fingerprint.Signature(s.Events(), s.RF(), s.mo)
}

// String renders a readable summary of the state.
func (s *State) String() string {
	var b strings.Builder
	b.WriteString("events:\n")
	for i := range s.events {
		fmt.Fprintf(&b, "  %s\n", s.Event(event.Tag(i)))
	}
	fmt.Fprintf(&b, "sb: %s\nrf: %s\nmo: %s\n", s.SB(), s.RF(), s.mo)
	return b.String()
}
