package core

// Arena recycling for successor state. A built memory-step successor
// costs one *State (shell and one slab holding its mo, index block and
// memo rows), plus an event list and hb/eco/comb closures of its own
// wherever it could not extend its parent's in place (state.go's type
// comment). The explorer deduplicates by predicted fingerprint before
// building, so it builds almost only successors it keeps; the few it
// builds and then drops — an admission race lost to another worker, a
// state-budget rejection, a collision-audit duplicate — and the
// successors a caller of AppendStepSuccessors throws away (the
// benchmark's layer probe) come back through Config.Discard →
// State.recycle, and grow draws replacement shells from a pool whose
// allocators recarve their retained slabs (relation.Allocator.Release)
// instead of allocating fresh ones.
//
// Safety: a discarded successor was never expanded, never audited and
// never stored, so it has no children and no one holds its claims.
// What its allocator carved is its own: mo and the index block are
// copies, and carves never have spare capacity to share. What it may
// share with its parent — the event list and the closures, when it won
// their claims — never came from the allocator, so Release never sees
// it; recycle only drops the references. The parent's claims stay
// taken, so no sibling ever extends into the rows the discarded
// successor wrote. The variable-name table it shares with its parent
// is never mutated.

import (
	"sync"

	"repro/internal/fingerprint"
	"repro/internal/relation"
)

// statePool recycles State shells together with their embedded
// allocator's slabs.
var statePool = sync.Pool{New: func() any { return new(State) }}

// recycle resets a dead state and returns it to the pool. The caller
// guarantees nothing references s anymore: the explorer only discards
// successors it built but did not keep — never expanded, never
// audited, never stored. The relation, index and memo headers are
// zeroed: the allocator's retained slabs are cleared in Release, and
// the event list and closures, which may share their parent's backing,
// are dropped rather than reused. The state's own claims need no reset:
// it has no children, so none was ever taken.
func (s *State) recycle() {
	s.events = nil
	s.names = nil
	s.mo = relation.Rel{}
	s.idx, s.nthr = nil, 0
	s.inc = incProvenance{}
	s.fpAcc = fingerprint.Acc{}
	// A discarded successor has no concurrent users, so the memo can
	// be reset without taking its mutex.
	s.memo.hbP, s.memo.ecoP, s.memo.combP = relation.Rel{}, relation.Rel{}, relation.Rel{}
	s.memo.hbOK, s.memo.ecoOK, s.memo.combOK = false, false, false
	s.memo.obs = nil
	s.alloc.Release()
	statePool.Put(s)
}
