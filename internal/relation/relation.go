// Package relation implements finite binary relations over the elements
// 0..n-1 as dense boolean matrices backed by internal/bits.
//
// The C11 memory-model development manipulates relations constantly:
// sequenced-before, reads-from, modification order, and the derived
// synchronises-with, happens-before, from-read and extended-coherence
// orders are all binary relations over the events of an execution, and
// the axioms are (ir)reflexivity and acyclicity conditions on relational
// expressions. This package supplies exactly that algebra: union,
// intersection, composition, converse, reflexive and transitive closure,
// restriction, images, and linearization (topological sorting).
package relation

import (
	"fmt"
	mathbits "math/bits"
	"slices"
	"sort"
	"strings"
	"sync/atomic"

	"repro/internal/bits"
)

// Rel is a binary relation over {0..n-1}, stored as one contiguous,
// pointer-free word slab with a fixed row stride: row i (the
// successors of i) is words[i*stride:(i+1)*stride]. Rel values are
// mutable and own their slab, except that a relation returned by
// Extend may share its rows with the relation it extends (see Extend);
// Clone before sharing. The zero value is an empty relation over the
// empty carrier.
//
// Growing a relation with Grow or GrowAlloc copies the parent's slab —
// one memmove, or one per row when the stride grows — so the copy never
// aliases its parent. The garbage collector never scans relation
// storage.
type Rel struct {
	n      int
	stride int      // words per row: ceil(n/64)
	words  []uint64 // n*stride words, row-major
}

// Allocator carves the word slabs of a successor state's relations,
// index rows and per-state bit sets out of one backing slab, so
// building a state costs one allocation rather than one per relation.
// Its first slab is sized for slabRels relations over the carrier
// plus the extra words its owner asks for at Init. Everything
// it carves is owned by the allocator's owner alone: carves are capped
// (no spare capacity), so Extend never shares one, and successors copy
// what they inherit from them.
type Allocator struct {
	chunk  []uint64 // uncarved tail of the newest slab
	stride int      // words per row of the carrier given to Init
	slab   int      // words in the next fresh slab
	free   []uint64 // spare inline words for NewSet
	// inline backs small NewSet carves inside the owner's own
	// allocation.
	inline [8]uint64
}

// slabRels sizes the first slab: the one relation a successor state
// copies per step (mo; its hb/eco/comb closures come from Extend, and
// rf lives in the event records). Later slabs hold slabSets rows (or
// one oversized carve).
const (
	slabRels = 1
	slabSets = 16
)

// Init initialises a zero allocator for an n-element carrier; callers
// embed the Allocator in a larger per-state structure to save its
// separate allocation. extra words beyond the relations are reserved
// in the first slab for Words and NewSet carves.
func (a *Allocator) Init(n, extra int) {
	a.stride = strideOf(n)
	a.slab = slabRels*n*a.stride + extra
	a.chunk = nil
	a.free = nil
	if a.stride > 0 && a.stride <= len(a.inline) {
		a.free = a.inline[:len(a.inline)-len(a.inline)%a.stride]
	}
}

// Words carves k zeroed words from the current slab, starting a new
// one when the current slab is exhausted: the first sized at Init,
// later ones for slabSets rows (or one oversized carve). The
// result is capped, so it can never spill into the next carve. Not
// safe for concurrent use; callers synchronise exactly as they do for
// relation mutation.
func (a *Allocator) Words(k int) []uint64 {
	if len(a.chunk) < k {
		a.chunk = make([]uint64, max(k, a.slab))
		a.slab = slabSets * a.stride
	}
	words := a.chunk[:k:k]
	a.chunk = a.chunk[k:]
	return words
}

// NewSet carves one zeroed bit set of capacity n (at most the
// allocator's carrier size), inline-backed while the inline words last.
// Not safe for concurrent use; callers synchronise exactly as they do
// for relation mutation.
func (a *Allocator) NewSet(n int) bits.Set {
	if len(a.free) >= a.stride && a.stride > 0 {
		words := a.free[:a.stride:a.stride]
		a.free = a.free[a.stride:]
		return bits.FromWords(words, n)
	}
	return bits.FromWords(a.Words(a.stride), n)
}

const wordBits = 64

func strideOf(n int) int { return (n + wordBits - 1) / wordBits }

// New returns the empty relation over {0..n-1}: one allocation.
func New(n int) Rel {
	if n < 0 {
		panic("relation: negative carrier size")
	}
	stride := strideOf(n)
	return Rel{n: n, stride: stride, words: make([]uint64, n*stride)}
}

// FromPairs builds a relation over {0..n-1} from explicit pairs.
func FromPairs(n int, pairs [][2]int) Rel {
	r := New(n)
	for _, p := range pairs {
		r.Add(p[0], p[1])
	}
	return r
}

// Identity returns the identity relation over {0..n-1}.
func Identity(n int) Rel {
	r := New(n)
	for i := 0; i < n; i++ {
		r.Add(i, i)
	}
	return r
}

// Size returns the carrier size n.
func (r Rel) Size() int { return r.n }

// row returns row a's words, capped so that it can never spill into
// the next row.
func (r Rel) row(a int) []uint64 {
	return r.words[a*r.stride : (a+1)*r.stride : (a+1)*r.stride]
}

// Row returns the successor set of a as a view of the relation's
// storage (do not mutate).
func (r Rel) Row(a int) bits.Set { return bits.FromWords(r.row(a), r.n) }

func (r Rel) checkColumn(b int) {
	if uint(b) >= uint(r.n) {
		panic("relation: column out of range")
	}
}

// Add inserts the pair (a, b).
func (r *Rel) Add(a, b int) {
	r.checkColumn(b)
	r.words[a*r.stride+int(uint(b)/wordBits)] |= 1 << (uint(b) % wordBits)
}

// Remove deletes the pair (a, b).
func (r *Rel) Remove(a, b int) {
	r.checkColumn(b)
	r.words[a*r.stride+int(uint(b)/wordBits)] &^= 1 << (uint(b) % wordBits)
}

// UnionRow sets row a to row(a) ∪ s. s may have a smaller capacity
// than the carrier (absent columns read as empty).
func (r *Rel) UnionRow(a int, s bits.Set) {
	row := r.Row(a)
	row.Or(s)
}

// Has reports whether (a, b) is in the relation. Out-of-range indices
// report false.
func (r Rel) Has(a, b int) bool {
	if uint(a) >= uint(r.n) || uint(b) >= uint(r.n) {
		return false
	}
	return r.words[a*r.stride+int(uint(b)/wordBits)]&(1<<(uint(b)%wordBits)) != 0
}

// Clone returns an independent copy.
func (r Rel) Clone() Rel {
	return Rel{n: r.n, stride: r.stride, words: append([]uint64(nil), r.words...)}
}

// Grow returns a copy of r over a carrier of max(n, r.Size()) elements;
// the new rows and columns start empty.
func (r Rel) Grow(n int) Rel {
	n = max(n, r.n)
	out := New(n)
	r.copyInto(out)
	return out
}

// GrowAlloc is Grow drawing the copy's storage from the given
// allocator — the successor hot path, where a state's mo shares one
// slab with its index block.
func (r Rel) GrowAlloc(n int, a *Allocator) Rel {
	n = max(n, r.n)
	stride := strideOf(n)
	out := Rel{n: n, stride: stride, words: a.Words(n * stride)}
	r.copyInto(out)
	return out
}

// Claim is the one-shot right to extend the spare tail of an
// append-only array in place (Extend, Rel.Extend). The zero Claim is
// unclaimed, and exactly one Take ever wins it.
type Claim struct{ taken atomic.Bool }

// Take reports whether the caller won the claim.
func (c *Claim) Take() bool { return !c.taken.Load() && c.taken.CompareAndSwap(false, true) }

// Extend returns s followed by one zero element. When c is non-nil, s
// has a spare element of capacity and the caller wins c, the result
// extends s's own backing in place; otherwise it is a copy with spare
// capacity for later extensions (a quarter of its length, plus one).
//
// Sharing is safe under the append-only discipline this primitive
// exists for: the elements below len(s) are never written again once
// s is published, spare capacity is zeroed when it is allocated, and
// only the winner of c ever writes element len(s). A caller that wins
// c keeps it even if it throws its result away, so no later extension
// of s can see that element's contents.
func Extend[T any](s []T, c *Claim) []T {
	return extend(s, 1, len(s)/4+1, c)
}

// Extend returns r over the carrier n+1 (n = r.Size()) with the new
// row and column empty. When c is non-nil, the row stride is
// unchanged, r's backing has a spare row of capacity and the caller
// wins c, the result extends r's backing in place and shares rows
// 0..n-1 with r: the caller may then write only the new row n. A
// caller that will also write old rows (the new column) passes a nil
// claim, and always gets a copy. A copy carries spare rows for later
// extensions — a quarter of the carrier plus one, but never past the
// current stride, which a later extension could not use. When the
// stride is unchanged only the new row and the spare are zeroed; the
// rest is copied over. See the package function Extend for the
// aliasing rules.
func (r Rel) Extend(c *Claim) Rel {
	n := r.n + 1
	stride := strideOf(n)
	spare := min(n/4+1, stride*wordBits-n) * stride
	if stride == r.stride {
		return Rel{n: n, stride: stride, words: extend(r.words, stride, spare, c)}
	}
	out := Rel{n: n, stride: stride, words: make([]uint64, n*stride, n*stride+spare)}
	r.copyInto(out)
	return out
}

// extend returns s followed by k zero elements: s's own backing when c
// is non-nil, s has k spare elements and the caller wins c, else a
// fresh copy with spare more elements of capacity. The copy is a make
// immediately followed by a copy, which the compiler fuses so that
// only the part not copied is zeroed.
func extend[T any](s []T, k, spare int, c *Claim) []T {
	n := len(s) + k
	if c != nil && cap(s) >= n && c.Take() {
		return s[:n]
	}
	out := make([]T, n+spare)
	copy(out, s)
	return out[:n]
}

// copyInto copies r's pairs into the zeroed relation out over a carrier
// at least as large: one memmove when the strides agree, else one per
// row.
func (r Rel) copyInto(out Rel) {
	if r.stride == out.stride {
		copy(out.words, r.words)
		return
	}
	for i := 0; i < r.n; i++ {
		copy(out.row(i), r.row(i))
	}
}

// Union sets r to r ∪ s. Carriers must match.
func (r *Rel) Union(s Rel) {
	r.checkSize(s)
	for i, w := range s.words {
		r.words[i] |= w
	}
}

// Intersect sets r to r ∩ s. Carriers must match.
func (r *Rel) Intersect(s Rel) {
	r.checkSize(s)
	for i, w := range s.words {
		r.words[i] &= w
	}
}

// Subtract sets r to r \ s. Carriers must match.
func (r *Rel) Subtract(s Rel) {
	r.checkSize(s)
	for i, w := range s.words {
		r.words[i] &^= w
	}
}

func (r Rel) checkSize(s Rel) {
	if r.n != s.n {
		panic(fmt.Sprintf("relation: carrier mismatch %d != %d", r.n, s.n))
	}
}

// UnionOf returns r ∪ s as a new relation.
func UnionOf(rs ...Rel) Rel {
	if len(rs) == 0 {
		return New(0)
	}
	out := rs[0].Clone()
	for _, s := range rs[1:] {
		out.Union(s)
	}
	return out
}

// Compose returns r ; s — the relational composition
// {(a,c) | ∃b. (a,b) ∈ r ∧ (b,c) ∈ s}.
func Compose(r, s Rel) Rel {
	r.checkSize(s)
	out := New(r.n)
	for a := 0; a < r.n; a++ {
		row, dst := r.Row(a), out.Row(a)
		for b := row.Next(0); b >= 0; b = row.Next(b + 1) {
			dst.Or(s.Row(b))
		}
	}
	return out
}

// Converse returns r⁻¹.
func (r Rel) Converse() Rel {
	out := New(r.n)
	for a := 0; a < r.n; a++ {
		row := r.Row(a)
		for b := row.Next(0); b >= 0; b = row.Next(b + 1) {
			out.Add(b, a)
		}
	}
	return out
}

// ReflexiveClosure returns r ∪ Id.
func (r Rel) ReflexiveClosure() Rel {
	out := r.Clone()
	for i := 0; i < r.n; i++ {
		out.Add(i, i)
	}
	return out
}

// TransitiveClosure returns r⁺ using a bitset Floyd–Warshall:
// for each pivot k, every row that reaches k absorbs row(k).
func (r Rel) TransitiveClosure() Rel {
	out := r.Clone()
	for k := 0; k < out.n; k++ {
		rk := out.Row(k)
		for i := 0; i < out.n; i++ {
			if i != k && out.Has(i, k) {
				ri := out.Row(i)
				ri.Or(rk)
			}
		}
		// A self-loop at k also requires absorbing k's row into itself,
		// which is a no-op; nothing further needed.
	}
	return out
}

// ReflexiveTransitiveClosure returns r*.
func (r Rel) ReflexiveTransitiveClosure() Rel {
	return r.TransitiveClosure().ReflexiveClosure()
}

// Irreflexive reports whether no (a, a) pair is present.
func (r Rel) Irreflexive() bool {
	for i := 0; i < r.n; i++ {
		if r.Has(i, i) {
			return false
		}
	}
	return true
}

// Acyclic reports whether the relation has no directed cycle,
// equivalently whether its transitive closure is irreflexive.
func (r Rel) Acyclic() bool {
	// Kahn's algorithm is O(V+E) and avoids building the closure.
	indeg := make([]int, r.n)
	for a := 0; a < r.n; a++ {
		row := r.Row(a)
		for b := row.Next(0); b >= 0; b = row.Next(b + 1) {
			indeg[b]++
		}
	}
	queue := make([]int, 0, r.n)
	for i, d := range indeg {
		if d == 0 {
			queue = append(queue, i)
		}
	}
	seen := 0
	for len(queue) > 0 {
		a := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		seen++
		row := r.Row(a)
		for b := row.Next(0); b >= 0; b = row.Next(b + 1) {
			indeg[b]--
			if indeg[b] == 0 {
				queue = append(queue, b)
			}
		}
	}
	return seen == r.n
}

// Transitive reports whether r;r ⊆ r.
func (r Rel) Transitive() bool {
	comp := Compose(r, r)
	return comp.SubsetOf(r)
}

// SubsetOf reports whether r ⊆ s.
func (r Rel) SubsetOf(s Rel) bool {
	r.checkSize(s)
	for i, w := range r.words {
		if w&^s.words[i] != 0 {
			return false
		}
	}
	return true
}

// Equal reports whether r and s contain the same pairs.
func (r Rel) Equal(s Rel) bool {
	return r.n == s.n && slices.Equal(r.words, s.words)
}

// Empty reports whether the relation has no pairs.
func (r Rel) Empty() bool {
	for _, w := range r.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Pairs returns all pairs in lexicographic order.
func (r Rel) Pairs() [][2]int {
	var out [][2]int
	for a := 0; a < r.n; a++ {
		row := r.Row(a)
		for b := row.Next(0); b >= 0; b = row.Next(b + 1) {
			out = append(out, [2]int{a, b})
		}
	}
	return out
}

// Count returns the number of pairs.
func (r Rel) Count() int {
	c := 0
	for _, w := range r.words {
		c += mathbits.OnesCount64(w)
	}
	return c
}

// Successors returns R[{a}] as a fresh set.
func (r Rel) Successors(a int) bits.Set { return r.Row(a).Clone() }

// FilterPairs returns the sub-relation of pairs satisfying keep.
func (r Rel) FilterPairs(keep func(a, b int) bool) Rel {
	out := New(r.n)
	for a := 0; a < r.n; a++ {
		row := r.Row(a)
		for b := row.Next(0); b >= 0; b = row.Next(b + 1) {
			if keep(a, b) {
				out.Add(a, b)
			}
		}
	}
	return out
}

// WithoutIdentity returns r \ Id.
func (r Rel) WithoutIdentity() Rel {
	out := r.Clone()
	for i := 0; i < r.n; i++ {
		out.Remove(i, i)
	}
	return out
}

// Topological returns one linearization of r restricted to the members
// of carrier (all n elements when carrier is nil), or ok=false when r
// is cyclic. Among available elements the smallest index is taken
// first, so the output is deterministic.
func (r Rel) Topological() ([]int, bool) {
	indeg := make([]int, r.n)
	for a := 0; a < r.n; a++ {
		row := r.Row(a)
		for b := row.Next(0); b >= 0; b = row.Next(b + 1) {
			if a != b {
				indeg[b]++
			} else {
				return nil, false // self-loop
			}
		}
	}
	avail := bits.New(r.n)
	for i, d := range indeg {
		if d == 0 {
			avail.Set(i)
		}
	}
	out := make([]int, 0, r.n)
	for len(out) < r.n {
		a := avail.Next(0)
		if a < 0 {
			return nil, false
		}
		avail.Clear(a)
		out = append(out, a)
		row := r.Row(a)
		for b := row.Next(0); b >= 0; b = row.Next(b + 1) {
			indeg[b]--
			if indeg[b] == 0 {
				avail.Set(b)
			}
		}
	}
	return out, true
}

// Linearizations calls f with each linearization of r (each permutation
// of 0..n-1 consistent with r) until f returns false. It reports
// whether enumeration ran to completion (true) or was stopped by f
// (false). A cyclic relation has no linearizations, so f is never
// called and the result is true.
func (r Rel) Linearizations(f func(perm []int) bool) bool {
	indeg := make([]int, r.n)
	for a := 0; a < r.n; a++ {
		row := r.Row(a)
		for b := row.Next(0); b >= 0; b = row.Next(b + 1) {
			indeg[b]++
		}
	}
	perm := make([]int, 0, r.n)
	used := make([]bool, r.n)
	var rec func() bool
	rec = func() bool {
		if len(perm) == r.n {
			return f(perm)
		}
		for a := 0; a < r.n; a++ {
			if used[a] || indeg[a] != 0 {
				continue
			}
			used[a] = true
			perm = append(perm, a)
			row := r.Row(a)
			for b := row.Next(0); b >= 0; b = row.Next(b + 1) {
				indeg[b]--
			}
			if !rec() {
				return false
			}
			for b := row.Next(0); b >= 0; b = row.Next(b + 1) {
				indeg[b]++
			}
			perm = perm[:len(perm)-1]
			used[a] = false
		}
		return true
	}
	return rec()
}

// String renders the relation as a sorted pair list.
func (r Rel) String() string {
	pairs := r.Pairs()
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i][0] != pairs[j][0] {
			return pairs[i][0] < pairs[j][0]
		}
		return pairs[i][1] < pairs[j][1]
	})
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "(%d,%d)", p[0], p[1])
	}
	b.WriteByte('}')
	return b.String()
}
