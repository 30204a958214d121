// Package fingerprint computes compact 128-bit identities for
// canonical executions. The explorer visits hundreds of thousands of
// states per run and previously keyed its seen-set by a
// fmt.Fprintf-built canonical string (sorted event list plus rf/mo
// pair list) — the single hottest allocation site in the whole
// checker. This package replaces that string with a binary encoding:
// events are renamed to (thread, position-in-thread) exactly as in the
// canonical signatures, encoded as fixed-width words with no
// intermediate strings, and absorbed into two independent 64-bit hash
// lanes. Collisions over a 128-bit key are vanishingly unlikely at
// reachable state counts; the explorer retains the exact string
// signature as a slow path behind a collision-checking debug option.
package fingerprint

import (
	"encoding/binary"
	"slices"
	"strconv"
	"sync"

	"repro/internal/event"
	"repro/internal/relation"
)

// FP is a 128-bit fingerprint, usable directly as a map key.
type FP struct {
	Hi, Lo uint64
}

// Lane constants: the Lo lane is word-wise FNV-1a (xor, then multiply
// by the FNV prime); the Hi lane is an add-multiply chain with xxhash
// constants. The lanes use different combining operations and
// different odd multipliers, so one lane's collisions are uncorrelated
// with the other's.
const (
	seedLo = 0xcbf29ce484222325 // FNV-1a 64 offset basis
	seedHi = 0x9e3779b97f4a7c15 // golden gamma
	mulLo  = 0x00000100000001b3 // FNV-1a 64 prime
	mulHi  = 0xc2b2ae3d27d4eb4f // xxhash PRIME64_2
)

// Hasher accumulates words into the two lanes. The zero value is not
// ready for use; call NewHasher.
type Hasher struct {
	hi, lo uint64
}

// NewHasher returns a hasher with both lanes seeded.
func NewHasher() Hasher { return Hasher{hi: seedHi, lo: seedLo} }

// Word absorbs one 64-bit word.
func (h *Hasher) Word(w uint64) {
	lo := (h.lo ^ w) * mulLo
	h.lo = lo ^ lo>>31
	hi := (h.hi + w) * mulHi
	h.hi = hi ^ hi>>29
}

// String and Bytes pack a length-prefixed byte sequence eight bytes
// per word, little-endian, the last word zero-padded. The length
// prefix keeps the encoding prefix-free. The two bodies are duplicated
// rather than shared through a generic helper: a call through a shape
// dictionary leaks its pointer parameters, so the generic form made
// every caller's Hasher escape to the heap — one allocation per
// fingerprint on the explorer's admit path.

// String absorbs a length-prefixed string.
func (h *Hasher) String(s string) {
	h.Word(uint64(len(s)))
	for ; len(s) >= 8; s = s[8:] {
		h.Word(uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
			uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56)
	}
	if len(s) > 0 {
		var w uint64
		for i := 0; i < len(s); i++ {
			w |= uint64(s[i]) << (8 * i)
		}
		h.Word(w)
	}
}

// Bytes absorbs a length-prefixed byte slice.
func (h *Hasher) Bytes(b []byte) {
	h.Word(uint64(len(b)))
	for ; len(b) >= 8; b = b[8:] {
		h.Word(binary.LittleEndian.Uint64(b))
	}
	if len(b) > 0 {
		var w uint64
		for i := 0; i < len(b); i++ {
			w |= uint64(b[i]) << (8 * i)
		}
		h.Word(w)
	}
}

// fmix64 is the murmur3 finalizer: a full-avalanche bijection.
func fmix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Sum finalizes both lanes.
func (h *Hasher) Sum() FP {
	return FP{Hi: fmix64(h.hi), Lo: fmix64(h.lo)}
}

// Acc is a commutative accumulator of item fingerprints: a multiset
// hash. Each item is hashed to a full-avalanche FP (via Hasher.Sum)
// and the lanes are combined by wrapping addition, so the accumulated
// value is independent of the order items are added — exactly what an
// incrementally maintained canonical state identity needs, since the
// canonical renaming (thread, position-in-thread) of an event never
// changes as later events are appended.
type Acc struct {
	Hi, Lo uint64
}

// Add absorbs one item fingerprint into the accumulator.
func (a *Acc) Add(fp FP) {
	a.Hi += fp.Hi
	a.Lo += fp.Lo
}

// Finalize seals an accumulator of n items into a fingerprint.
func Finalize(a Acc, n int) FP {
	h := NewHasher()
	h.Word(uint64(n))
	h.Word(a.Hi)
	h.Word(a.Lo)
	return h.Sum()
}

// Item labels of the canonical encoding, shared by the incremental
// accumulator on core.State and the from-scratch Canonical below.
const (
	// LabelRF tags reads-from pairs.
	LabelRF = 2
	// LabelMO tags modification-order pairs.
	LabelMO = 3
)

// EventItem hashes one event under its canonical name: the pair
// (thread, position-in-thread), with initialising writes positioned by
// variable-sorted order.
func EventItem(t event.Thread, pos int, a event.Action) FP {
	h := NewHasher()
	h.Word(1)
	h.Word(uint64(t)<<32 | uint64(uint32(pos)))
	h.Word(uint64(a.Kind))
	h.String(string(a.Loc))
	h.Word(uint64(int64(a.RVal)))
	h.Word(uint64(int64(a.WVal)))
	return h.Sum()
}

// PairItem hashes one relation pair (LabelRF or LabelMO) under
// canonical names.
func PairItem(label uint64, ta event.Thread, pa int, tb event.Thread, pb int) FP {
	h := NewHasher()
	h.Word(label)
	h.Word(uint64(ta)<<32 | uint64(uint32(pa)))
	h.Word(uint64(tb)<<32 | uint64(uint32(pb)))
	return h.Sum()
}

// Set is a set of fingerprints — the currency of cross-run state-space
// comparison. The explorer's self-audit (explore.Audit) collects the
// reachable and terminated fingerprint sets of a full, a serial reduced
// and a parallel reduced search and diffs them: the reduced reachable
// set must be contained in the full one (its transitions are a subset)
// and the terminated sets must coincide (the reduction preserves
// terminated configurations, the engine's result is independent of its
// worker count). The zero value is not ready;
// call NewSet. Set is not safe for concurrent use — guard it with a
// mutex when collecting from a parallel exploration.
type Set struct {
	m map[FP]struct{}
}

// NewSet returns an empty set.
func NewSet() *Set { return &Set{m: make(map[FP]struct{}, 1024)} }

// Add inserts fp.
func (s *Set) Add(fp FP) { s.m[fp] = struct{}{} }

// Has reports fp ∈ s.
func (s *Set) Has(fp FP) bool {
	_, ok := s.m[fp]
	return ok
}

// Len returns |s|.
func (s *Set) Len() int { return len(s.m) }

// MissingFrom counts the elements of s absent from other — zero iff
// s ⊆ other.
func (s *Set) MissingFrom(other *Set) int {
	n := 0
	for fp := range s.m {
		if !other.Has(fp) {
			n++
		}
	}
	return n
}

// scratch holds the reusable buffers of one Canonical invocation.
type scratch struct {
	pos    []int32 // tag -> canonical position within its thread
	inits  []int32 // initialising-write tags, for the variable sort
	counts []int32 // per-thread position counters
}

var pool = sync.Pool{New: func() any { return new(scratch) }}

func (sc *scratch) resize(n, threads int) {
	if cap(sc.pos) < n {
		sc.pos = make([]int32, n)
		sc.inits = make([]int32, n)
	}
	sc.pos = sc.pos[:n]
	sc.inits = sc.inits[:0]
	if cap(sc.counts) < threads {
		sc.counts = make([]int32, threads)
	}
	sc.counts = sc.counts[:threads]
	for i := range sc.counts {
		sc.counts[i] = 0
	}
}

// positions fills sc.pos with every event's canonical position: its
// per-thread appearance (tag) order, except for initialising writes,
// which sort by variable name (stable). It leaves each program
// thread's event count in sc.counts and the initialising writes, in
// canonical order, in sc.inits.
func (sc *scratch) positions(events []event.Event) {
	maxT := 0
	for i := range events {
		if t := int(events[i].TID); t > maxT {
			maxT = t
		}
	}
	sc.resize(len(events), maxT+1)
	for i := range events {
		if t := int(events[i].TID); t != int(event.InitThread) {
			sc.pos[i] = sc.counts[t]
			sc.counts[t]++
		} else {
			sc.inits = append(sc.inits, int32(i))
		}
	}
	for i := 1; i < len(sc.inits); i++ {
		for j := i; j > 0 && events[sc.inits[j]].Var() < events[sc.inits[j-1]].Var(); j-- {
			sc.inits[j], sc.inits[j-1] = sc.inits[j-1], sc.inits[j]
		}
	}
	for p, tag := range sc.inits {
		sc.pos[tag] = int32(p)
	}
}

// Canonical fingerprints an execution ((D, sb), rf, mo) up to the
// interleaving that built it, using the same multiset encoding that
// core.State accumulates incrementally: every event contributes
// EventItem under its (thread, position-in-thread) name — with
// initialising writes positioned by variable-sorted order — and every
// rf/mo pair contributes PairItem over the renamed endpoints; the
// items combine commutatively (Acc) and Finalize seals the result. sb
// is omitted — it is determined by the event order and thread
// structure. The relations must have carrier len(events), with
// events[i] at tag i.
func Canonical(events []event.Event, rf, mo relation.Rel) FP {
	n := len(events)
	sc := pool.Get().(*scratch)
	sc.positions(events)

	var acc Acc
	for i := range events {
		acc.Add(EventItem(events[i].TID, int(sc.pos[i]), events[i].Act))
	}
	absorbRel := func(label uint64, r relation.Rel) {
		for a := 0; a < n; a++ {
			row := r.Row(a)
			for b := row.Next(0); b >= 0; b = row.Next(b + 1) {
				acc.Add(PairItem(label,
					events[a].TID, int(sc.pos[a]),
					events[b].TID, int(sc.pos[b])))
			}
		}
	}
	absorbRel(LabelRF, rf)
	absorbRel(LabelMO, mo)
	pool.Put(sc)
	return Finalize(acc, n)
}

// Signature is the exact string form of the identity Canonical
// hashes: the events under Canonical's renaming, listed in canonical order — initialising writes
// first, then thread by thread — as "thread:action|", followed by
// "rf" and "mo" and each relation's pairs "(a,b)" over the events'
// indices in that order, sorted. Executions share a Signature exactly
// when they differ only in the interleaving that built them; it is the
// slow path explore.Audit's collision audit checks the fingerprints
// against.
func Signature(events []event.Event, rf, mo relation.Rel) string {
	n := len(events)
	sc := pool.Get().(*scratch)
	sc.positions(events)
	// The initialising writes (thread 0) come first; a program
	// thread's events follow those of every lower thread.
	off := make([]int, len(sc.counts))
	next := len(sc.inits)
	for t := 1; t < len(off); t++ {
		off[t] = next
		next += int(sc.counts[t])
	}
	canon, order := make([]int, n), make([]int, n)
	for i := range events {
		canon[i] = off[events[i].TID] + int(sc.pos[i])
		order[canon[i]] = i
	}
	pool.Put(sc)

	var b []byte
	for _, i := range order {
		b = strconv.AppendInt(b, int64(events[i].TID), 10)
		b = append(b, ':')
		b = events[i].Act.AppendTo(b)
		b = append(b, '|')
	}
	var cols []int
	appendRel := func(label string, r relation.Rel) {
		b = append(b, label...)
		for ca, a := range order {
			cols = cols[:0]
			row := r.Row(a)
			for j := row.Next(0); j >= 0; j = row.Next(j + 1) {
				cols = append(cols, canon[j])
			}
			slices.Sort(cols)
			for _, cb := range cols {
				b = append(b, '(')
				b = strconv.AppendInt(b, int64(ca), 10)
				b = append(b, ',')
				b = strconv.AppendInt(b, int64(cb), 10)
				b = append(b, ')')
			}
		}
	}
	appendRel("rf", rf)
	appendRel("mo", mo)
	return string(b)
}
