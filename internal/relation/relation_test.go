package relation

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bits"
)

func pairsRel(n int, ps ...[2]int) Rel { return FromPairs(n, ps) }

func TestAddHasRemove(t *testing.T) {
	r := New(4)
	r.Add(0, 1)
	r.Add(3, 2)
	if !r.Has(0, 1) || !r.Has(3, 2) {
		t.Fatal("Add/Has broken")
	}
	if r.Has(1, 0) {
		t.Fatal("converse pair present")
	}
	if r.Has(-1, 0) || r.Has(9, 0) {
		t.Fatal("out-of-range Has should be false")
	}
	r.Remove(0, 1)
	if r.Has(0, 1) {
		t.Fatal("Remove failed")
	}
	if r.Count() != 1 {
		t.Fatalf("Count = %d", r.Count())
	}
}

func TestIdentityFull(t *testing.T) {
	id := Identity(3)
	if id.Count() != 3 || !id.Has(0, 0) || !id.Has(2, 2) || id.Has(0, 1) {
		t.Fatal("Identity wrong")
	}
}

func TestUnionIntersectSubtract(t *testing.T) {
	a := pairsRel(4, [2]int{0, 1}, [2]int{1, 2})
	b := pairsRel(4, [2]int{1, 2}, [2]int{2, 3})

	u := UnionOf(a, b)
	if u.Count() != 3 || !u.Has(0, 1) || !u.Has(2, 3) {
		t.Fatalf("union = %v", u)
	}
	i := a.Clone()
	i.Intersect(b)
	if i.Count() != 1 || !i.Has(1, 2) {
		t.Fatalf("intersect = %v", i)
	}
	d := a.Clone()
	d.Subtract(b)
	if d.Count() != 1 || !d.Has(0, 1) {
		t.Fatalf("subtract = %v", d)
	}
	// Originals untouched.
	if a.Count() != 2 || b.Count() != 2 {
		t.Fatal("operands mutated")
	}
}

func TestCompose(t *testing.T) {
	r := pairsRel(5, [2]int{0, 1}, [2]int{0, 2})
	s := pairsRel(5, [2]int{1, 3}, [2]int{2, 4}, [2]int{3, 0})
	c := Compose(r, s)
	want := pairsRel(5, [2]int{0, 3}, [2]int{0, 4})
	if !c.Equal(want) {
		t.Fatalf("compose = %v, want %v", c, want)
	}
	// Composition with identity is identity-preserving.
	if !Compose(r, Identity(5)).Equal(r) || !Compose(Identity(5), r).Equal(r) {
		t.Fatal("identity laws broken")
	}
}

func TestConverse(t *testing.T) {
	r := pairsRel(3, [2]int{0, 1}, [2]int{1, 2})
	c := r.Converse()
	if !c.Equal(pairsRel(3, [2]int{1, 0}, [2]int{2, 1})) {
		t.Fatalf("converse = %v", c)
	}
	if !c.Converse().Equal(r) {
		t.Fatal("double converse != original")
	}
}

func TestTransitiveClosure(t *testing.T) {
	r := pairsRel(4, [2]int{0, 1}, [2]int{1, 2}, [2]int{2, 3})
	tc := r.TransitiveClosure()
	want := pairsRel(4,
		[2]int{0, 1}, [2]int{0, 2}, [2]int{0, 3},
		[2]int{1, 2}, [2]int{1, 3}, [2]int{2, 3})
	if !tc.Equal(want) {
		t.Fatalf("closure = %v, want %v", tc, want)
	}
	if !tc.Transitive() {
		t.Fatal("closure not transitive")
	}
}

func TestTransitiveClosureCycle(t *testing.T) {
	r := pairsRel(3, [2]int{0, 1}, [2]int{1, 0})
	tc := r.TransitiveClosure()
	if !tc.Has(0, 0) || !tc.Has(1, 1) {
		t.Fatal("cycle closure should contain self-loops")
	}
	if tc.Has(2, 2) {
		t.Fatal("unrelated element gained self-loop")
	}
	if tc.Irreflexive() {
		t.Fatal("cyclic closure reported irreflexive")
	}
}

func TestReflexiveClosures(t *testing.T) {
	r := pairsRel(3, [2]int{0, 1})
	rc := r.ReflexiveClosure()
	if rc.Count() != 4 {
		t.Fatalf("reflexive closure count = %d", rc.Count())
	}
	rtc := r.ReflexiveTransitiveClosure()
	if !rtc.Has(0, 0) || !rtc.Has(0, 1) || !rtc.Has(2, 2) {
		t.Fatal("rtc missing pairs")
	}
}

func TestAcyclic(t *testing.T) {
	dag := pairsRel(4, [2]int{0, 1}, [2]int{1, 2}, [2]int{0, 2})
	if !dag.Acyclic() {
		t.Fatal("dag reported cyclic")
	}
	cyc := pairsRel(4, [2]int{0, 1}, [2]int{1, 2}, [2]int{2, 0})
	if cyc.Acyclic() {
		t.Fatal("cycle reported acyclic")
	}
	self := pairsRel(2, [2]int{1, 1})
	if self.Acyclic() {
		t.Fatal("self-loop reported acyclic")
	}
	if !New(0).Acyclic() || !New(5).Acyclic() {
		t.Fatal("empty relations should be acyclic")
	}
}

func TestIrreflexive(t *testing.T) {
	if !pairsRel(3, [2]int{0, 1}).Irreflexive() {
		t.Fatal("irreflexive relation misreported")
	}
	if pairsRel(3, [2]int{1, 1}).Irreflexive() {
		t.Fatal("reflexive pair missed")
	}
}

func TestSubsetEqualEmpty(t *testing.T) {
	a := pairsRel(3, [2]int{0, 1})
	b := pairsRel(3, [2]int{0, 1}, [2]int{1, 2})
	if !a.SubsetOf(b) || b.SubsetOf(a) {
		t.Fatal("SubsetOf wrong")
	}
	if !a.Equal(a.Clone()) || a.Equal(b) {
		t.Fatal("Equal wrong")
	}
	if !New(3).Empty() || a.Empty() {
		t.Fatal("Empty wrong")
	}
}

// The image of a point is its successor set; its pre-image is the
// successor set under the converse.
func TestImagePreImage(t *testing.T) {
	r := pairsRel(5, [2]int{0, 2}, [2]int{1, 2}, [2]int{1, 3})
	if got := r.Successors(1); !got.Equal(bits.Of(5, 2, 3)) {
		t.Fatalf("successors = %v", got)
	}
	if got := r.Converse().Successors(2); !got.Equal(bits.Of(5, 0, 1)) {
		t.Fatalf("predecessors = %v", got)
	}
}

func TestRestrictFilterWithoutID(t *testing.T) {
	r := pairsRel(4, [2]int{0, 1}, [2]int{1, 2}, [2]int{2, 3}, [2]int{1, 1})
	f := r.FilterPairs(func(a, b int) bool { return a == b })
	if !f.Equal(pairsRel(4, [2]int{1, 1})) {
		t.Fatalf("filter = %v", f)
	}
	noid := r.WithoutIdentity()
	if noid.Has(1, 1) || noid.Count() != 3 {
		t.Fatalf("withoutIdentity = %v", noid)
	}
}

func TestTopological(t *testing.T) {
	r := pairsRel(4, [2]int{2, 0}, [2]int{0, 1}, [2]int{1, 3})
	seq, ok := r.Topological()
	if !ok {
		t.Fatal("topological failed on dag")
	}
	if !isLinearization(r, seq) {
		t.Fatalf("sequence %v not a linearization", seq)
	}
	if _, ok := pairsRel(2, [2]int{0, 1}, [2]int{1, 0}).Topological(); ok {
		t.Fatal("topological succeeded on cycle")
	}
	if _, ok := pairsRel(2, [2]int{1, 1}).Topological(); ok {
		t.Fatal("topological succeeded on self-loop")
	}
}

func TestLinearizationsEnumeration(t *testing.T) {
	// Two incomparable chains 0<1 and 2: linearizations of 3 elements
	// with 0 before 1: 3 of them.
	r := pairsRel(3, [2]int{0, 1})
	var count int
	done := r.Linearizations(func(p []int) bool {
		if !isLinearization(r, p) {
			t.Fatalf("emitted non-linearization %v", p)
		}
		count++
		return true
	})
	if !done {
		t.Fatal("enumeration reported early stop")
	}
	if count != 3 {
		t.Fatalf("linearization count = %d, want 3", count)
	}
	// Early stop.
	count = 0
	done = r.Linearizations(func(p []int) bool {
		count++
		return false
	})
	if done || count != 1 {
		t.Fatalf("early stop broken: done=%v count=%d", done, count)
	}
}

// isLinearization reports whether seq is a permutation of 0..n-1 that
// respects r: (a,b) ∈ r implies a appears before b. It is the oracle
// the Topological and Linearizations tests judge their output by.
func isLinearization(r Rel, seq []int) bool {
	n := r.Size()
	if len(seq) != n {
		return false
	}
	pos := make([]int, n)
	seen := make([]bool, n)
	for i, e := range seq {
		if e < 0 || e >= n || seen[e] {
			return false
		}
		seen[e] = true
		pos[e] = i
	}
	for _, p := range r.Pairs() {
		if pos[p[0]] >= pos[p[1]] {
			return false
		}
	}
	return true
}

// The oracle itself rejects order violations and non-permutations, so
// the tests that rely on it cannot pass vacuously.
func TestIsLinearizationRejects(t *testing.T) {
	r := pairsRel(3, [2]int{0, 1})
	if isLinearization(r, []int{1, 0, 2}) {
		t.Fatal("order violation accepted")
	}
	if isLinearization(r, []int{0, 1}) {
		t.Fatal("short sequence accepted")
	}
	if isLinearization(r, []int{0, 0, 1}) {
		t.Fatal("duplicate accepted")
	}
	if isLinearization(r, []int{0, 1, 7}) {
		t.Fatal("out-of-range accepted")
	}
}

func TestGrowRelation(t *testing.T) {
	r := pairsRel(2, [2]int{0, 1})
	g := r.Grow(5)
	if g.Size() != 5 || !g.Has(0, 1) {
		t.Fatal("Grow lost pairs")
	}
	g.Add(4, 0)
	if r.Size() != 2 {
		t.Fatal("Grow mutated original")
	}
}

func randRel(r *rand.Rand, n int, density float64) Rel {
	rel := New(n)
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if r.Float64() < density {
				rel.Add(a, b)
			}
		}
	}
	return rel
}

// Property: transitive closure is idempotent, contains r, and is
// transitive; acyclicity agrees with irreflexivity of the closure.
func TestQuickClosureProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(9)
		r := randRel(rng, n, 0.25)
		tc := r.TransitiveClosure()
		if !r.SubsetOf(tc) || !tc.Transitive() {
			return false
		}
		if !tc.TransitiveClosure().Equal(tc) {
			return false
		}
		return r.Acyclic() == tc.Irreflexive()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: composition is associative and distributes over union.
func TestQuickComposeAlgebra(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(7)
		a := randRel(rng, n, 0.3)
		b := randRel(rng, n, 0.3)
		c := randRel(rng, n, 0.3)
		lhs := Compose(Compose(a, b), c)
		rhs := Compose(a, Compose(b, c))
		if !lhs.Equal(rhs) {
			return false
		}
		// a;(b ∪ c) == a;b ∪ a;c
		d1 := Compose(a, UnionOf(b, c))
		d2 := UnionOf(Compose(a, b), Compose(a, c))
		return d1.Equal(d2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: (r;s)⁻¹ = s⁻¹;r⁻¹.
func TestQuickConverseAntiDistribution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(7)
		r := randRel(rng, n, 0.3)
		s := randRel(rng, n, 0.3)
		lhs := Compose(r, s).Converse()
		rhs := Compose(s.Converse(), r.Converse())
		return lhs.Equal(rhs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: every topological sort of an acyclic relation is a
// linearization and Linearizations only emits valid ones.
func TestQuickTopologicalValid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(7)
		// Build a DAG by ordering edges low->high.
		r := New(n)
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				if rng.Intn(3) == 0 {
					r.Add(a, b)
				}
			}
		}
		seq, ok := r.Topological()
		if !ok || !isLinearization(r, seq) {
			return false
		}
		valid := true
		r.Linearizations(func(p []int) bool {
			if !isLinearization(r, p) {
				valid = false
				return false
			}
			return true
		})
		return valid
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestString(t *testing.T) {
	r := pairsRel(3, [2]int{2, 0}, [2]int{0, 1})
	if got := r.String(); got != "{(0,1), (2,0)}" {
		t.Fatalf("String = %q", got)
	}
}

func BenchmarkTransitiveClosure(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	r := randRel(rng, 64, 0.05)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = r.TransitiveClosure()
	}
}

func BenchmarkCompose(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	r := randRel(rng, 64, 0.1)
	s := randRel(rng, 64, 0.1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Compose(r, s)
	}
}

func BenchmarkAcyclic(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	n := 128
	r := New(n)
	for a := 0; a < n; a++ {
		for bb := a + 1; bb < n; bb++ {
			if rng.Intn(10) == 0 {
				r.Add(a, bb)
			}
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !r.Acyclic() {
			b.Fatal("dag misclassified")
		}
	}
}

// BenchmarkUnionRow measures the word-parallel row extension the
// predecessor-oriented closures are built from (one row union per
// derived edge group).
func BenchmarkUnionRow(b *testing.B) {
	n := 64
	src := bits.New(n)
	for i := 0; i < n; i += 3 {
		src.Set(i)
	}
	r := New(n)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.UnionRow(i%n, src)
	}
}

// newAllocator returns an allocator for an n-element carrier.
func newAllocator(n int) *Allocator {
	a := new(Allocator)
	a.Init(n, 0)
	return a
}

// TestGrowChildIsolation pins the ownership contract of Grow and
// GrowAlloc: a grown relation shares no storage with its parent or
// with a sibling grown from the same parent, so mutating one never
// shows through another.
func TestGrowChildIsolation(t *testing.T) {
	parent := FromPairs(3, [][2]int{{0, 1}, {1, 2}, {2, 0}})
	snapshot := parent.Clone()

	a := newAllocator(4)
	child := parent.GrowAlloc(4, a)
	sibling := parent.GrowAlloc(4, a)
	plain := parent.Grow(4)
	if child.Size() != 4 || sibling.Size() != 4 || plain.Size() != 4 {
		t.Fatalf("carriers %d %d %d", child.Size(), sibling.Size(), plain.Size())
	}
	// Inherited pairs read through; the new row starts empty.
	for _, r := range []Rel{child, sibling, plain} {
		for _, p := range snapshot.Pairs() {
			if !r.Has(p[0], p[1]) {
				t.Fatalf("grown relation lost inherited pair %v", p)
			}
		}
		if !r.Row(3).Empty() {
			t.Fatal("fresh row must be empty")
		}
	}

	child.Add(0, 3) // inherited row, new column
	child.Add(3, 1) // fresh row
	child.Remove(1, 2)
	child.UnionRow(2, bits.Of(4, 1, 3))
	if !parent.Equal(snapshot) {
		t.Fatalf("parent mutated through child: %s != %s", parent, snapshot)
	}
	for _, r := range []Rel{sibling, plain} {
		if !r.Equal(snapshot.Grow(4)) {
			t.Fatalf("sibling mutated through child: %s", r)
		}
	}
	want := FromPairs(4, [][2]int{{0, 1}, {0, 3}, {2, 0}, {2, 1}, {2, 3}, {3, 1}})
	if !child.Equal(want) {
		t.Fatalf("child contents %s, want %s", child, want)
	}
	// And the other way round: writes to the parent stay out of its
	// children.
	parent.Add(1, 1)
	if child.Has(1, 1) || sibling.Has(1, 1) || plain.Has(1, 1) {
		t.Fatal("parent mutation leaked into a child")
	}

	// A grandchild grown from the carved child into an allocator of its
	// own keeps its pairs when the child is scribbled over and the
	// child's allocator carves on.
	grand := child.GrowAlloc(5, newAllocator(5))
	want = want.Grow(5)
	child.UnionRow(0, bits.Of(4, 0, 1, 2, 3))
	child.Remove(2, 0)
	w := a.Words(4)
	for i, x := range w {
		if x != 0 {
			t.Fatalf("carved word %d not zeroed: %#x", i, x)
		}
		w[i] = ^uint64(0)
	}
	s := a.NewSet(4)
	if !s.Empty() {
		t.Fatalf("carved set not zeroed: %s", s)
	}
	for i := 0; i < 4; i++ {
		s.Set(i)
	}
	if !grand.Equal(want) {
		t.Fatalf("grandchild diverged: %s, want %s", grand, want)
	}
}

// TestGrowWordBoundaries grows a relation one element at a time across
// the 64- and 128-bit row boundaries, where the row stride changes and
// the copy switches from one memmove to one per row, and checks that
// every pair survives every step.
func TestGrowWordBoundaries(t *testing.T) {
	for _, path := range [][]int{{63, 64, 65}, {127, 128, 129}} {
		rng := rand.New(rand.NewSource(int64(path[0])))
		r := randRel(rng, path[0], 0.05)
		r.Add(0, path[0]-1)
		r.Add(path[0]-1, path[0]-1)
		want := r.Pairs()
		a := newAllocator(path[len(path)-1])
		for i, n := range path[1:] {
			if i%2 == 0 {
				r = r.GrowAlloc(n, a)
			} else {
				r = r.Grow(n)
			}
			if r.Size() != n {
				t.Fatalf("grown to %d, want %d", r.Size(), n)
			}
			if got := r.Pairs(); len(got) != len(want) {
				t.Fatalf("%v at %d: %d pairs, want %d", path, n, len(got), len(want))
			}
			for _, p := range want {
				if !r.Has(p[0], p[1]) {
					t.Fatalf("%v at %d: lost pair %v", path, n, p)
				}
			}
			// The new last row and column are usable and start empty.
			if !r.Row(n-1).Empty() || !r.Converse().Row(n-1).Empty() {
				t.Fatalf("%v at %d: new row or column not empty", path, n)
			}
			r.Add(n-1, 0)
			r.Add(0, n-1)
			want = append(want, [2]int{n - 1, 0}, [2]int{0, n - 1})
		}
	}
}

func TestGrowChain(t *testing.T) {
	// Grandchild grown through an intermediate grown relation.
	r := FromPairs(2, [][2]int{{0, 1}})
	c1 := r.Grow(3)
	c1.Add(2, 0)
	c2 := c1.GrowAlloc(4, newAllocator(4))
	c2.Add(3, 2)
	c2.Add(0, 3)
	want := FromPairs(4, [][2]int{{0, 1}, {2, 0}, {3, 2}, {0, 3}})
	if !c2.Equal(want) {
		t.Fatalf("chained grow: %s != %s", c2, want)
	}
	if !c1.Equal(FromPairs(3, [][2]int{{0, 1}, {2, 0}})) {
		t.Fatalf("intermediate mutated: %s", c1)
	}
	if !r.Equal(FromPairs(2, [][2]int{{0, 1}})) {
		t.Fatalf("root mutated: %s", r)
	}
	cl := c2.Clone()
	if !cl.Equal(want) {
		t.Fatalf("clone: %s", cl)
	}
}

func TestGrowBulkOps(t *testing.T) {
	parent := FromPairs(3, [][2]int{{0, 1}, {1, 2}})
	a := newAllocator(4)
	child := parent.GrowAlloc(4, a)
	other := FromPairs(4, [][2]int{{2, 3}, {1, 2}})
	child.Union(other)
	if !child.Equal(FromPairs(4, [][2]int{{0, 1}, {1, 2}, {2, 3}})) {
		t.Fatalf("union on grown rel: %s", child)
	}
	child2 := parent.GrowAlloc(4, a)
	child2.Subtract(other)
	if !child2.Equal(FromPairs(4, [][2]int{{0, 1}})) {
		t.Fatalf("subtract on grown rel: %s", child2)
	}
	child3 := parent.GrowAlloc(4, a)
	child3.Intersect(other)
	if !child3.Equal(FromPairs(4, [][2]int{{1, 2}})) {
		t.Fatalf("intersect on grown rel: %s", child3)
	}
	if !parent.Equal(FromPairs(3, [][2]int{{0, 1}, {1, 2}})) {
		t.Fatalf("parent mutated: %s", parent)
	}
}

func TestGrowDerivedOps(t *testing.T) {
	// Read-only algebra over an allocator-carved relation matches the
	// algebra over its heap clone.
	rng := rand.New(rand.NewSource(99))
	parent := randRel(rng, 20, 0.15)
	child := parent.GrowAlloc(24, newAllocator(24))
	for i := 0; i < 10; i++ {
		child.Add(rng.Intn(24), rng.Intn(24))
	}
	full := child.Clone()
	if !child.TransitiveClosure().Equal(full.TransitiveClosure()) {
		t.Fatal("closure differs on carved rel")
	}
	if !child.Converse().Equal(full.Converse()) {
		t.Fatal("converse differs on carved rel")
	}
	if !Compose(child, child).Equal(Compose(full, full)) {
		t.Fatal("compose differs on carved rel")
	}
	if got, want := child.Count(), full.Count(); got != want {
		t.Fatalf("count %d != %d", got, want)
	}
}

func TestUnionRow(t *testing.T) {
	parent := FromPairs(3, [][2]int{{0, 1}})
	child := parent.Grow(4)
	child.UnionRow(0, bits.Of(3, 2)) // shorter set into an inherited row
	child.UnionRow(3, bits.Of(4, 0, 3))
	if !child.Equal(FromPairs(4, [][2]int{{0, 1}, {0, 2}, {3, 0}, {3, 3}})) {
		t.Fatalf("UnionRow: %s", child)
	}
	if parent.Has(0, 2) {
		t.Fatal("UnionRow leaked into parent")
	}
}

// TestAllocatorRecycling pins that an allocator never hands out
// storage twice: after each case carves and scribbles, later carves
// from the same allocator — a relation grown from a parent, relations
// beyond the first slab, a set, raw words — come out zeroed and owned,
// never aliasing an earlier carve or the parent they grow from.
func TestAllocatorRecycling(t *testing.T) {
	parent := FromPairs(3, [][2]int{{0, 1}, {1, 2}})
	cases := []struct {
		name  string
		dirty func(a *Allocator) // carve and scribble
	}{
		{"rows", func(a *Allocator) {
			r := parent.GrowAlloc(4, a)
			r.Add(3, 0)
			r.Add(0, 2)
			r.UnionRow(1, bits.Of(4, 3))
		}},
		{"sets", func(a *Allocator) {
			s := a.NewSet(4)
			s.Set(3)
			w := a.Words(2)
			w[0], w[1] = 1, 9
		}},
		{"rows-and-sets", func(a *Allocator) {
			r := parent.GrowAlloc(4, a)
			r.Add(3, 3)
			w := a.Words(1)
			w[0] = 4
		}},
		{"many-rows", func(a *Allocator) {
			// Outgrow the first slab so later carves start new slabs.
			for k := 0; k < 3; k++ {
				r := New(40).GrowAlloc(40, a)
				for i := 0; i < 40; i++ {
					r.Add(i, (i+k)%40)
				}
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := newAllocator(4)
			tc.dirty(a)

			child := parent.GrowAlloc(4, a)
			if !child.Row(3).Empty() {
				t.Fatalf("fresh row not empty: %s", child.Row(3))
			}
			for i := 0; i < 3; i++ {
				if !child.Row(i).Equal(parent.Row(i)) {
					t.Fatalf("inherited row %d diverged: %s vs %s", i, child.Row(i), parent.Row(i))
				}
			}
			for k := 0; k < 3; k++ {
				if r := New(40).GrowAlloc(40, a); !r.Empty() {
					t.Fatalf("carved relation not zeroed: %s", r)
				}
			}
			if s := a.NewSet(4); !s.Empty() {
				t.Fatalf("NewSet not zeroed: %s", s)
			}
			if w := a.Words(2); w[0] != 0 || w[1] != 0 {
				t.Fatalf("Words not zeroed: %v", w)
			}
			snapshot := parent.Clone()
			child.Add(0, 2)
			child.Add(3, 1)
			child.UnionRow(2, bits.Of(4, 0, 3))
			if !parent.Equal(snapshot) {
				t.Fatalf("child mutation leaked into parent: %s vs %s", parent, snapshot)
			}
		})
	}
}
