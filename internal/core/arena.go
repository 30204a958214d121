package core

// Arena recycling for successor state. A built memory-step successor
// costs one *State (shell, event records, one slab holding its
// relations, index block and memo rows). The explorer deduplicates by
// predicted fingerprint before building, so it builds almost only
// successors it keeps; the few it builds and then drops — an admission
// race lost to another worker, a state-budget rejection, a
// collision-audit duplicate — and the successors a caller of
// AppendStepSuccessors throws away (the benchmark's layer probe) come
// back through Config.Discard → State.recycle, and grow draws
// replacement shells from a pool whose allocators recarve their
// retained slabs (relation.Allocator.Release) instead of allocating
// fresh ones.
//
// Safety: a discarded successor was never expanded, never audited and
// never stored, so it has no children, and nothing it carved is
// aliased: its relations and index block are its own copies, and the
// variable-name table it shares with its parent is never mutated.

import (
	"sync"

	"repro/internal/bits"
	"repro/internal/fingerprint"
	"repro/internal/relation"
)

// statePool recycles State shells together with their embedded
// allocator's slabs and their event-record slice.
var statePool = sync.Pool{New: func() any { return new(State) }}

// recycle resets a dead state and returns it to the pool. The caller
// guarantees nothing references s anymore: the explorer only discards
// successors it built but did not keep — never expanded, never
// audited, never stored. The relation, index and memo headers are
// zeroed (their storage lives in the allocator's retained slabs, which
// the allocator clears in Release).
func (s *State) recycle() {
	s.events = s.events[:0]
	s.names = nil
	s.rf, s.mo = relation.Rel{}, relation.Rel{}
	s.idx, s.nthr = nil, 0
	s.inc = incProvenance{}
	s.fpAcc = fingerprint.Acc{}
	// A discarded successor has no concurrent users, so the memo can
	// be reset without taking its mutex.
	s.memo.hbP, s.memo.ecoP, s.memo.combP = relation.Rel{}, relation.Rel{}, relation.Rel{}
	s.memo.covered = bits.Set{}
	s.memo.hbOK, s.memo.ecoOK, s.memo.combOK, s.memo.cwOK = false, false, false, false
	s.memo.obs = nil
	s.alloc.Release()
	statePool.Put(s)
}

// newState returns a pooled shell (or a fresh one) whose event slice
// is empty with capacity for nEvents. The caller initialises every
// other field.
func newState(nEvents int) *State {
	s := statePool.Get().(*State)
	if cap(s.events) < nEvents {
		s.events = make([]evRec, 0, nEvents)
	}
	return s
}
