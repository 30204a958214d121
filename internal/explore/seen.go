package explore

// The seen-set: one flat open-addressed table per shard. A slot holds
// a configuration's fingerprint and its entry inline, 40 bytes with no
// pointer in them, so the collector never scans the table and
// admitting a configuration allocates nothing but the occasional
// doubling. The shard is picked by FP.Lo (run.shardOf); the table
// probes linearly from FP.Hi, an independent lane. Occupancy lives in
// the entry's packed word, so every fingerprint, FP{} included, is a
// valid key.
//
// A table grows by moving its slots, so an *entry it returns is valid
// only while the shard's lock is held (or, outside the workers, until
// the next insert).

import (
	"unsafe"

	"repro/internal/fingerprint"
)

// entry is one seen-set record: the best depth and smallest sleep mask
// the configuration has been reached with, whether it is terminated,
// and the depth and sleep mask it was last expanded at (expandedAt -1
// if never). Every non-terminated configuration is expandable,
// including those at the progress bound (see admit). The depth, term
// and the slot's occupancy share word.
type entry struct {
	sleep         threadMask
	expandedSleep threadMask
	// word is depth<<depthShift | term<<1 | occupied.
	word       uint32
	expandedAt int32
}

const (
	wordUsed   = 1 << 0
	wordTerm   = 1 << 1
	depthShift = 2
	// maxDepth is the deepest depth an entry can record. A search
	// deeper than this would need over a billion admitted
	// configurations on one path.
	maxDepth = 1<<(32-depthShift) - 1
)

// newEntry is the record of a configuration first admitted at depth d
// with sleep mask sleep.
func newEntry(d int32, sleep threadMask, term bool) entry {
	e := entry{sleep: sleep, word: uint32(d) << depthShift, expandedAt: -1}
	if term {
		e.word |= wordTerm
	}
	return e
}

func (e *entry) depth() int32 { return int32(e.word >> depthShift) }

func (e *entry) setDepth(d int32) {
	e.word = e.word&(1<<depthShift-1) | uint32(d)<<depthShift
}

func (e *entry) term() bool { return e.word&wordTerm != 0 }

// relax folds a re-discovery at depth d with sleep mask sleep into
// the entry and reports whether the entry must be re-expanded: its
// depth or sleep mask improved below what it was last expanded with.
func (e *entry) relax(d int32, sleep threadMask) (requeue bool) {
	claimed := !e.term() && e.expandedAt >= 0
	if d < e.depth() {
		e.setDepth(d)
		requeue = claimed && e.expandedAt > d
	}
	if ns := e.sleep & sleep; ns != e.sleep {
		e.sleep = ns
		requeue = requeue || (claimed && e.expandedSleep&^ns != 0)
	}
	return requeue
}

// expanded reports whether the entry has already been expanded at its
// current best depth and with a sleep mask no larger than the current
// one (so a queued item for it is stale).
func (e *entry) expanded() bool {
	return e.expandedAt >= 0 && e.expandedAt <= e.depth() && e.expandedSleep&^e.sleep == 0
}

// slot is one table cell; it is empty when its entry's word lacks
// wordUsed.
type slot struct {
	fp fingerprint.FP
	e  entry
}

const (
	// seenMinSlots is a table's first allocation.
	seenMinSlots = 8
	// A table doubles before an insert would take it past
	// seenLoadNum/seenLoadDen full.
	seenLoadNum, seenLoadDen = 7, 8
)

// seenTable is one shard's open-addressed table. The zero value is
// empty and allocates on its first insert.
type seenTable struct {
	slots []slot // nil, or a power-of-two array
	n     int    // occupied slots
}

// index returns the slot holding fp, or ok=false.
func (t *seenTable) index(fp fingerprint.FP) (i uint64, ok bool) {
	if len(t.slots) == 0 {
		return 0, false
	}
	mask := uint64(len(t.slots) - 1)
	for i = fp.Hi & mask; ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.e.word&wordUsed == 0 {
			return 0, false
		}
		if s.fp == fp {
			return i, true
		}
	}
}

// find returns fp's entry, or nil when fp is unseen.
func (t *seenTable) find(fp fingerprint.FP) *entry {
	i, ok := t.index(fp)
	if !ok {
		return nil
	}
	return &t.slots[i].e
}

// insert records e under fp, which the caller has found absent.
func (t *seenTable) insert(fp fingerprint.FP, e entry) {
	if (t.n+1)*seenLoadDen > len(t.slots)*seenLoadNum {
		t.grow()
	}
	t.n++
	e.word |= wordUsed
	t.place(fp, e)
}

// place stores e under fp in the first free slot of fp's probe run.
func (t *seenTable) place(fp fingerprint.FP, e entry) {
	mask := uint64(len(t.slots) - 1)
	i := fp.Hi & mask
	for t.slots[i].e.word&wordUsed != 0 {
		i = (i + 1) & mask
	}
	t.slots[i] = slot{fp: fp, e: e}
}

// grow doubles the table (or makes its first array) and re-places
// every occupied slot.
func (t *seenTable) grow() {
	old := t.slots
	t.slots = make([]slot, max(seenMinSlots, 2*len(old)))
	for i := range old {
		if old[i].e.word&wordUsed != 0 {
			t.place(old[i].fp, old[i].e)
		}
	}
}

// all yields every recorded fingerprint with its entry, for use in a
// range statement. The table must not be modified during the loop.
func (t *seenTable) all(yield func(fingerprint.FP, *entry) bool) {
	for i := range t.slots {
		if s := &t.slots[i]; s.e.word&wordUsed != 0 && !yield(s.fp, &s.e) {
			return
		}
	}
}

// bytes is the table's slot array size.
func (t *seenTable) bytes() int { return len(t.slots) * int(unsafe.Sizeof(slot{})) }
