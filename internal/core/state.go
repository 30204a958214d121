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
	"sort"
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
// Successor states are cheap on two axes. First, sb/rf/mo are flat,
// pointer-free word slabs (relation.Rel): a successor copies its
// parent's relations with one memmove each, out of one slab its
// allocator carves per state, and shares no relation storage with its
// parent. Second, a successor records its provenance (the inc field)
// so the derived closures hb/eco/comb are not recomputed from scratch
// but inherited from the parent's memoised closures and extended by
// the new event's edges alone — see incremental.go.
type State struct {
	events []event.Event // D; index is the event's Tag
	// sbP is sequenced-before stored transposed: row g holds the
	// sb-*predecessors* of g. Every sb edge ends at the newest event
	// (earlier events of the stepping thread and the initialising
	// writes precede it), so in predecessor form a step writes exactly
	// one row, where the row-major form would write one old row per
	// predecessor. The derived closures hb/eco/comb are memoised in the
	// same orientation (see orders.go); rf and mo stay
	// row-major, as the step rules and observability kernels consume
	// their successor rows.
	sbP relation.Rel
	rf  relation.Rel // reads-from (Wr × Rd)
	mo  relation.Rel // modification order (Wr × Wr)

	// Eagerly-maintained indexes, extended by addEvent/insertMO and
	// immutable once the building step returns. They replace the
	// full-event rescans previously hidden in EncounteredWrites,
	// HBCone, Last, WritesTo and sb construction.
	threads  []threadEvents // per-thread event sets, in order of first action
	writes   bits.Set       // Wr ∩ D
	writesBy []varWrites    // per-variable writes in tag order
	lastW    []lastWrite    // mo-maximal write per variable

	// inc links a successor to the parent it was derived from, until
	// the derived orders have been inherited (see incremental.go).
	inc incProvenance

	// alloc backs this state's relations, inherited closures and index
	// sets, normally out of one slab. Embedded so a successor costs one
	// fewer allocation; carving happens only while the state is being
	// built (single goroutine) and later under memo.mu (the derive*Locked
	// functions of incremental.go).
	alloc relation.Allocator

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
		covered   bits.Set     // CW
		hbOK      bool
		ecoOK     bool
		combOK    bool
		cwOK      bool
		ew        []threadSet // EW_σ(t), appended on first query per thread
		ow        []threadSet // OW_σ(t), likewise
		// ewBuf/owBuf are the inline backing of ew/ow for the common
		// thread counts — the lists spill to the heap past four
		// threads. Pooled shells reuse the arrays across successors.
		ewBuf, owBuf [4]threadSet
	}
}

// threadSet is one memoised per-thread set (EW or OW); a slice of
// these beats a map for the handful of threads a program has.
type threadSet struct {
	tid event.Thread
	set bits.Set
}

// threadEvents is one per-thread entry of the event index.
type threadEvents struct {
	tid event.Thread
	evs bits.Set
}

// varWrites lists the writes to one variable in tag order.
type varWrites struct {
	x    event.Var
	tags []event.Tag
}

// lastWrite records σ.last(x), the mo-maximal write to x.
type lastWrite struct {
	x event.Var
	w event.Tag
}

// threadEvs returns the event set of thread t (the zero set when t has
// no events). The result aliases the index; do not mutate.
func (s *State) threadEvs(t event.Thread) bits.Set {
	for i := range s.threads {
		if s.threads[i].tid == t {
			return s.threads[i].evs
		}
	}
	return bits.Set{}
}

// writesTo returns the write-tag list for x (aliases the index).
func (s *State) writesTo(x event.Var) []event.Tag {
	for i := range s.writesBy {
		if s.writesBy[i].x == x {
			return s.writesBy[i].tags
		}
	}
	return nil
}

// Init returns an initial state σ₀ = ((I, ∅), ∅, ∅) with one
// initialising write per variable (§3.1). Variables are sorted so that
// equal initialisations produce identical tag assignments.
func Init(vars map[event.Var]event.Val) *State {
	names := make([]event.Var, 0, len(vars))
	for x := range vars {
		names = append(names, x)
	}
	sort.Slice(names, func(i, j int) bool { return names[i] < names[j] })

	n := len(names)
	s := &State{
		events: make([]event.Event, 0, n),
		sbP:    relation.New(n),
		rf:     relation.New(n),
		mo:     relation.New(n),
		writes: bits.New(n),
	}
	s.alloc.Init(n)
	for i, x := range names {
		s.events = append(s.events, event.Event{
			Tag: event.Tag(i),
			Act: event.Wr(x, vars[x]),
			TID: event.InitThread,
		})
		s.noteEvent(event.InitThread, i, n)
		s.noteWrite(x, event.Tag(i))
		// Canonical position of an initialising write is its index in
		// the variable-sorted order — exactly the construction order.
		s.fpAcc.Add(fingerprint.EventItem(event.InitThread, i, s.events[i].Act))
	}
	return s
}

// recycle returns a dead state's reusable allocations to the arena
// (see arena.go). The caller guarantees nothing references s anymore:
// the explorer only discards successors it built but did not keep —
// never expanded, never audited, never stored — so no other state
// aliases sets carved from s's allocator.
func (s *State) recycle() {
	releaseState(s)
}

// NumEvents returns |D|.
func (s *State) NumEvents() int { return len(s.events) }

// Event returns the event with the given tag.
func (s *State) Event(g event.Tag) event.Event { return s.events[int(g)] }

// Events returns a copy of D in tag order.
func (s *State) Events() []event.Event {
	out := make([]event.Event, len(s.events))
	copy(out, s.events)
	return out
}

// SB returns a copy of the sequenced-before relation (in successor
// orientation; the maintained form is transposed).
func (s *State) SB() relation.Rel { return s.sbP.Converse() }

// RF returns a copy of the reads-from relation.
func (s *State) RF() relation.Rel { return s.rf.Clone() }

// MO returns a copy of the modification order.
func (s *State) MO() relation.Rel { return s.mo.Clone() }

// sbHas etc. give cheap read access without cloning.

// SBHas reports (a, b) ∈ sb.
func (s *State) SBHas(a, b event.Tag) bool { return s.sbP.Has(int(b), int(a)) }

// RFHas reports (a, b) ∈ rf.
func (s *State) RFHas(a, b event.Tag) bool { return s.rf.Has(int(a), int(b)) }

// MOHas reports (a, b) ∈ mo.
func (s *State) MOHas(a, b event.Tag) bool { return s.mo.Has(int(a), int(b)) }

// Writes returns the set of write events Wr ∩ D (includes updates and
// initialising writes) as tags. The set is maintained incrementally on
// every addEvent, so this is a copy, not a scan.
func (s *State) Writes() bits.Set { return s.writes.Clone() }

// WritesTo returns the tags of writes to variable x in mo-respecting
// tag order (unsorted by mo; use Last or MO for ordering). Served from
// the per-variable write index.
func (s *State) WritesTo(x event.Var) []event.Tag {
	tags := s.writesTo(x)
	if tags == nil {
		return nil
	}
	out := make([]event.Tag, len(tags))
	copy(out, tags)
	return out
}

// Initials returns I_σ = D ∩ IWr.
func (s *State) Initials() []event.Tag {
	init := s.threadEvs(event.InitThread)
	out := make([]event.Tag, 0, init.Count())
	init.ForEach(func(i int) { out = append(out, event.Tag(i)) })
	return out
}

// InitialFor returns the initialising write to x.
func (s *State) InitialFor(x event.Var) (event.Tag, bool) {
	for i, e := range s.events {
		if e.IsInit() && e.Var() == x {
			return event.Tag(i), true
		}
	}
	return 0, false
}

// Vars returns the variables written anywhere in the state, sorted.
func (s *State) Vars() []event.Var {
	out := make([]event.Var, 0, len(s.writesBy))
	for i := range s.writesBy {
		out = append(out, s.writesBy[i].x)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ThreadEvents returns the tags of thread t's events in sb order
// (which coincides with tag order since events are appended).
func (s *State) ThreadEvents(t event.Thread) []event.Tag {
	evs := s.threadEvs(t)
	out := make([]event.Tag, 0, evs.Count())
	evs.ForEach(func(i int) { out = append(out, event.Tag(i)) })
	return out
}

// cloneGrow returns a copy of s with relation carriers grown to
// accommodate one more event. sb/rf/mo are copied into the successor's
// own allocator (one memmove each); the index slices alias the parent
// outright (the note* helpers below replace them copy-on-write when
// they extend an entry), and the memoised orders are left to be
// inherited through the inc provenance set by the caller.
func (s *State) cloneGrow() *State {
	n := len(s.events) + 1
	out := newState(n)
	out.events = out.events[:len(s.events)]
	out.threads = s.threads
	out.writes = s.writes
	out.writesBy = s.writesBy
	out.lastW = s.lastW
	out.fpAcc = s.fpAcc
	out.alloc.Init(n)
	out.sbP = s.sbP.GrowAlloc(n, &out.alloc)
	out.rf = s.rf.GrowAlloc(n, &out.alloc)
	out.mo = s.mo.GrowAlloc(n, &out.alloc)
	copy(out.events, s.events)
	return out
}

// noteEvent records event i of thread t in the per-thread index; n is
// the carrier size to grow the thread's set to. Neither the parent's
// slice nor its sets are mutated: the outer slice and the one extended
// entry are replaced by copies.
func (s *State) noteEvent(t event.Thread, i, n int) {
	out := make([]threadEvents, len(s.threads), len(s.threads)+1)
	copy(out, s.threads)
	s.threads = out
	for k := range s.threads {
		if s.threads[k].tid == t {
			// Successors alias the index outright, so the replacement
			// set is carved shared (slab-backed), not inline.
			evs := s.alloc.NewSharedSet(n)
			evs.Or(s.threads[k].evs)
			evs.Set(i)
			s.threads[k].evs = evs
			return
		}
	}
	evs := s.alloc.NewSharedSet(n)
	evs.Set(i)
	s.threads = append(s.threads, threadEvents{tid: t, evs: evs})
}

// noteWrite records write g to x in the write indexes, replacing the
// aliased parent slices copy-on-write (read steps never touch them). A
// first write to x is trivially mo-maximal; insertMO keeps lastW
// current for subsequent writes.
func (s *State) noteWrite(x event.Var, g event.Tag) {
	c := int(g) + 1
	if l := s.writes.Len(); l > c {
		c = l
	}
	w := s.alloc.NewSharedSet(c)
	w.Or(s.writes)
	w.Set(int(g))
	s.writes = w
	for i := range s.writesBy {
		if s.writesBy[i].x == x {
			out := make([]varWrites, len(s.writesBy))
			copy(out, s.writesBy)
			old := out[i].tags
			tags := make([]event.Tag, len(old)+1)
			copy(tags, old)
			tags[len(old)] = g
			out[i].tags = tags
			s.writesBy = out
			return
		}
	}
	s.writesBy = append(append([]varWrites(nil), s.writesBy...), varWrites{x: x, tags: []event.Tag{g}})
	s.lastW = append(append([]lastWrite(nil), s.lastW...), lastWrite{x: x, w: g})
}

// addEvent implements (D, sb) + e: e is appended and sb gains
// {e' | tid(e') ∈ {tid(e), 0}} × {e} (Figure 3). The sb predecessors
// are read off the per-thread index instead of rescanning D.
func (s *State) addEvent(a event.Action, t event.Thread) event.Tag {
	g := event.Tag(len(s.events))
	gi := int(g)
	n := gi + 1
	s.events = append(s.events, event.Event{Tag: g, Act: a, TID: t})
	// In predecessor orientation the new sb edges are one word-parallel
	// row fill: g's row gains the initialising writes and the stepping
	// thread's events.
	s.sbP.UnionRow(gi, s.threadEvs(event.InitThread))
	pos := 0
	if t != event.InitThread {
		tEvs := s.threadEvs(t)
		s.sbP.UnionRow(gi, tEvs)
		pos = tEvs.Count()
	}
	s.noteEvent(t, gi, n)
	if a.Kind.IsWrite() {
		s.noteWrite(a.Loc, g)
	}
	s.fpAcc.Add(fingerprint.EventItem(t, pos, a))
	return g
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
// variable-sorted index — which coincides with tag order).
func (s *State) posOf(g int) int {
	return s.threadEvs(s.events[g].TID).Rank(g)
}

// notePair accumulates a new rf/mo pair (a, b) into the fingerprint;
// both events must already be indexed.
func (s *State) notePair(label uint64, a, b int) {
	s.fpAcc.Add(fingerprint.PairItem(label,
		s.events[a].TID, s.posOf(a),
		s.events[b].TID, s.posOf(b)))
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
		acc.Add(fingerprint.PairItem(fingerprint.LabelRF, s.events[wi].TID, s.posOf(wi), t, pos))
	}
	if a.Kind.IsWrite() {
		for _, v := range s.writesTo(a.Loc) {
			if vi := int(v); vi == wi || s.mo.Has(vi, wi) {
				acc.Add(fingerprint.PairItem(fingerprint.LabelMO, s.events[vi].TID, s.posOf(vi), t, pos))
			}
		}
		row := s.mo.Row(wi)
		for j := row.Next(0); j >= 0; j = row.Next(j + 1) {
			acc.Add(fingerprint.PairItem(fingerprint.LabelMO, t, pos, s.events[j].TID, s.posOf(j)))
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
		fmt.Fprintf(&b, "%d:%s|", e.TID, e.Act)
	}
	b.WriteString("rf")
	b.WriteString(s.rf.String())
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
// the explorer uses this as its deduplication key (a symmetry
// reduction the operational semantics enables: a state is a C11
// state, not an interleaving).
func (s *State) CanonicalSignature() string {
	n := len(s.events)
	type keyed struct {
		tid  event.Thread
		pos  int
		name event.Var
		tag  int
	}
	ks := make([]keyed, n)
	perThread := map[event.Thread]int{}
	for i, e := range s.events {
		ks[i] = keyed{tid: e.TID, pos: perThread[e.TID], name: e.Var(), tag: i}
		perThread[e.TID]++
	}
	sort.Slice(ks, func(i, j int) bool {
		if ks[i].tid != ks[j].tid {
			return ks[i].tid < ks[j].tid
		}
		if ks[i].tid == event.InitThread && ks[i].name != ks[j].name {
			return ks[i].name < ks[j].name
		}
		return ks[i].pos < ks[j].pos
	})
	canon := make([]int, n)
	var b strings.Builder
	for i, k := range ks {
		canon[k.tag] = i
		fmt.Fprintf(&b, "%d:%s|", k.tid, s.events[k.tag].Act)
	}
	appendRel := func(label string, r relation.Rel) {
		pairs := r.Pairs()
		renamed := make([][2]int, 0, len(pairs))
		for _, p := range pairs {
			renamed = append(renamed, [2]int{canon[p[0]], canon[p[1]]})
		}
		sort.Slice(renamed, func(i, j int) bool {
			if renamed[i][0] != renamed[j][0] {
				return renamed[i][0] < renamed[j][0]
			}
			return renamed[i][1] < renamed[j][1]
		})
		b.WriteString(label)
		for _, p := range renamed {
			fmt.Fprintf(&b, "(%d,%d)", p[0], p[1])
		}
	}
	appendRel("rf", s.rf)
	appendRel("mo", s.mo)
	return b.String()
}

// String renders a readable summary of the state.
func (s *State) String() string {
	var b strings.Builder
	b.WriteString("events:\n")
	for _, e := range s.events {
		fmt.Fprintf(&b, "  %s\n", e)
	}
	fmt.Fprintf(&b, "sb: %s\nrf: %s\nmo: %s\n", s.sbP.Converse(), s.rf, s.mo)
	return b.String()
}
