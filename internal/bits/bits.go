// Package bits provides dense bit vectors sized in 64-bit words.
//
// The relation engine (internal/relation) stores a binary relation over
// n elements as one word slab of n fixed-stride rows and hands rows out
// as bits.Set views, so every relational operation (union,
// composition, transitive closure) reduces to word-parallel boolean
// arithmetic. Executions in this repository are litmus-sized
// (tens of events), so a dense representation is both the simplest and
// the fastest choice: one row fits in a cache line.
package bits

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Set is a fixed-capacity bit vector. The zero value is an empty set of
// capacity 0; use New to allocate capacity. Sets only grow via Grow.
type Set struct {
	words []uint64
	n     int // capacity in bits
}

// New returns an empty set with capacity for n bits.
func New(n int) Set {
	if n < 0 {
		panic("bits: negative capacity")
	}
	return Set{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// Len returns the capacity of the set in bits.
func (s Set) Len() int { return s.n }

// Test reports whether bit i is set. Out-of-range bits read as false.
func (s Set) Test(i int) bool {
	if i < 0 || i >= s.n {
		return false
	}
	return s.words[i/wordBits]&(1<<uint(i%wordBits)) != 0
}

// Set sets bit i. It panics if i is out of range.
func (s *Set) Set(i int) {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("bits: Set(%d) out of range [0,%d)", i, s.n))
	}
	s.words[i/wordBits] |= 1 << uint(i%wordBits)
}

// Clear clears bit i. It panics if i is out of range.
func (s *Set) Clear(i int) {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("bits: Clear(%d) out of range [0,%d)", i, s.n))
	}
	s.words[i/wordBits] &^= 1 << uint(i%wordBits)
}

// Clone returns an independent copy of s.
func (s Set) Clone() Set {
	w := make([]uint64, len(s.words))
	copy(w, s.words)
	return Set{words: w, n: s.n}
}

// Grow returns a set with capacity at least n bits containing the same
// members as s. If s already has capacity >= n, a clone is returned.
func (s Set) Grow(n int) Set {
	if n <= s.n {
		return s.Clone()
	}
	t := New(n)
	copy(t.words, s.words)
	return t
}

// FromWords returns a set of capacity nbits backed by the given word
// slice (not copied). The caller must supply at least ceil(nbits/64)
// words; membership beyond nbits is undefined. This is the view
// primitive for external word slabs: internal/relation's row views and
// its allocator's carved sets.
func FromWords(words []uint64, nbits int) Set {
	if uint(nbits) > uint(len(words))*wordBits {
		panic("bits: FromWords: negative capacity or too few words")
	}
	return Set{words: words, n: nbits}
}

// Or sets s to s | t. t's capacity may be smaller than s's (absent
// words read as zero) — a successor state folds its parent's sets and
// relation rows, built over the smaller parent carrier, into its own
// full-size rows. t may not be larger than s.
func (s *Set) Or(t Set) {
	s.checkAtMost(t)
	for i, w := range t.words {
		s.words[i] |= w
	}
}

// And sets s to s & t. Capacities may differ: words absent from t read
// as zero (so s's tail is cleared), and words of t beyond s's capacity
// are irrelevant.
func (s *Set) And(t Set) {
	m := len(t.words)
	if len(s.words) < m {
		m = len(s.words)
	}
	for i := 0; i < m; i++ {
		s.words[i] &= t.words[i]
	}
	for i := m; i < len(s.words); i++ {
		s.words[i] = 0
	}
}

// OrAnd sets s to s | (a & b) in one word-parallel pass — the fused
// kernel of masked row accumulation (e.g. "writes reachable from an
// event": union a relation row restricted to the write set without
// materialising the intersection). Capacities may differ; words absent
// from a or b read as zero, and words of a or b beyond s's capacity
// are irrelevant.
func (s *Set) OrAnd(a, b Set) {
	m := len(s.words)
	if len(a.words) < m {
		m = len(a.words)
	}
	if len(b.words) < m {
		m = len(b.words)
	}
	for i := 0; i < m; i++ {
		s.words[i] |= a.words[i] & b.words[i]
	}
}

// Max returns the largest member of s, or -1 when s is empty — a
// reverse word scan, so O(words) rather than a full Next iteration.
func (s Set) Max() int {
	for i := len(s.words) - 1; i >= 0; i-- {
		if w := s.words[i]; w != 0 {
			return i*wordBits + 63 - bits.LeadingZeros64(w)
		}
	}
	return -1
}

func (s Set) checkAtMost(t Set) {
	if t.n > s.n {
		panic(fmt.Sprintf("bits: operand capacity %d exceeds receiver capacity %d", t.n, s.n))
	}
}

// Intersects reports whether s and t share a member.
func (s Set) Intersects(t Set) bool {
	m := len(s.words)
	if len(t.words) < m {
		m = len(t.words)
	}
	for i := 0; i < m; i++ {
		if s.words[i]&t.words[i] != 0 {
			return true
		}
	}
	return false
}

// IsSubsetOf reports whether every member of s is a member of t.
func (s Set) IsSubsetOf(t Set) bool {
	for i, w := range s.words {
		var tw uint64
		if i < len(t.words) {
			tw = t.words[i]
		}
		if w&^tw != 0 {
			return false
		}
	}
	return true
}

// Equal reports whether s and t contain exactly the same members.
// Capacities may differ; only membership matters.
func (s Set) Equal(t Set) bool {
	m := len(s.words)
	if len(t.words) > m {
		m = len(t.words)
	}
	for i := 0; i < m; i++ {
		var sw, tw uint64
		if i < len(s.words) {
			sw = s.words[i]
		}
		if i < len(t.words) {
			tw = t.words[i]
		}
		if sw != tw {
			return false
		}
	}
	return true
}

// Empty reports whether s has no members.
func (s Set) Empty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Count returns the number of members of s.
func (s Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Rank returns the number of members strictly below i — the position
// of i among the members when i itself is one. Out-of-range i counts
// the whole set.
func (s Set) Rank(i int) int {
	if i <= 0 {
		return 0
	}
	if i > s.n {
		i = s.n
	}
	c := 0
	wi := i / wordBits
	for k := 0; k < wi; k++ {
		c += bits.OnesCount64(s.words[k])
	}
	if r := uint(i % wordBits); r != 0 {
		c += bits.OnesCount64(s.words[wi] & (1<<r - 1))
	}
	return c
}

// Next returns the smallest member >= i, or -1 if there is none.
// Iterate with: for i := s.Next(0); i >= 0; i = s.Next(i + 1) { ... }.
func (s Set) Next(i int) int {
	if i < 0 {
		i = 0
	}
	if i >= s.n {
		return -1
	}
	wi := i / wordBits
	w := s.words[wi] >> uint(i%wordBits)
	if w != 0 {
		return i + bits.TrailingZeros64(w)
	}
	for wi++; wi < len(s.words); wi++ {
		if s.words[wi] != 0 {
			return wi*wordBits + bits.TrailingZeros64(s.words[wi])
		}
	}
	return -1
}

// ForEach calls f for every member of s in ascending order.
func (s Set) ForEach(f func(i int)) {
	for i := s.Next(0); i >= 0; i = s.Next(i + 1) {
		f(i)
	}
}

// Members returns the members of s in ascending order.
func (s Set) Members() []int {
	out := make([]int, 0, s.Count())
	s.ForEach(func(i int) { out = append(out, i) })
	return out
}

// String renders the set as {a, b, c}.
func (s Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(i int) {
		if !first {
			b.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&b, "%d", i)
	})
	b.WriteByte('}')
	return b.String()
}

// Of returns a set of capacity n with exactly the given members.
func Of(n int, members ...int) Set {
	s := New(n)
	for _, m := range members {
		s.Set(m)
	}
	return s
}
