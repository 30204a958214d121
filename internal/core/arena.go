package core

// Arena recycling for successor state. A built memory-step successor
// costs one *State (shell, event slice, relation slab). The explorer
// deduplicates by predicted fingerprint before building, so it builds
// almost only successors it keeps; the few it builds and then drops —
// an admission race lost to another worker, a state-budget rejection,
// a collision-audit duplicate — and the successors a caller of
// AppendStepSuccessors throws away (the benchmark's layer probe) come
// back through Config.Discard → State.recycle, and cloneGrow draws
// replacement shells from a pool whose allocators recarve their
// retained slabs (relation.Allocator.Release) instead of allocating
// fresh ones.
//
// Safety: a discarded successor was never expanded, never audited and
// never stored, so no other state aliases sets carved from its
// allocator (children would — but it has none). Its relations are its
// own copies, and the parent index sets it aliases are untouched:
// recycling clears only the successor's own slabs.

import (
	"sync"

	"repro/internal/bits"
	"repro/internal/event"
	"repro/internal/fingerprint"
	"repro/internal/relation"
)

// statePool recycles State shells together with their embedded
// allocator's slabs and their events slice. The index slices alias
// parents and are simply dropped.
var statePool = sync.Pool{New: func() any { return new(State) }}

// releaseState resets s and returns it to the pool. The relation and
// memo headers are zeroed (their storage lives in the allocator's
// retained slabs, which the allocator clears in Release).
func releaseState(s *State) {
	s.events = s.events[:0]
	s.sbP, s.rf, s.mo = relation.Rel{}, relation.Rel{}, relation.Rel{}
	s.threads = nil
	s.writes = bits.Set{}
	s.writesBy = nil
	s.lastW = nil
	s.inc = incProvenance{}
	s.fpAcc = fingerprint.Acc{}
	// A discarded successor has no concurrent users, so the memo can
	// be reset without taking its mutex.
	s.memo.hbP, s.memo.ecoP, s.memo.combP = relation.Rel{}, relation.Rel{}, relation.Rel{}
	s.memo.covered = bits.Set{}
	s.memo.hbOK, s.memo.ecoOK, s.memo.combOK, s.memo.cwOK = false, false, false, false
	s.memo.ew = nil
	s.memo.ow = nil
	s.memo.ewBuf = [4]threadSet{}
	s.memo.owBuf = [4]threadSet{}
	s.alloc.Release()
	statePool.Put(s)
}

// newState returns a pooled shell (or a fresh one) whose events slice
// has capacity for nEvents. The caller initialises every other field.
func newState(nEvents int) *State {
	s := statePool.Get().(*State)
	if cap(s.events) < nEvents {
		s.events = make([]event.Event, 0, nEvents)
	}
	return s
}
