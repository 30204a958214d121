package bits

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestNewEmpty(t *testing.T) {
	s := New(130)
	if s.Len() != 130 {
		t.Fatalf("Len = %d, want 130", s.Len())
	}
	if !s.Empty() {
		t.Fatal("new set not empty")
	}
	if s.Count() != 0 {
		t.Fatalf("Count = %d, want 0", s.Count())
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1) did not panic")
		}
	}()
	New(-1)
}

func TestSetTestClear(t *testing.T) {
	s := New(100)
	for _, i := range []int{0, 1, 63, 64, 65, 99} {
		s.Set(i)
		if !s.Test(i) {
			t.Fatalf("bit %d not set", i)
		}
	}
	if s.Count() != 6 {
		t.Fatalf("Count = %d, want 6", s.Count())
	}
	s.Clear(64)
	if s.Test(64) {
		t.Fatal("bit 64 still set after Clear")
	}
	if s.Count() != 5 {
		t.Fatalf("Count = %d, want 5", s.Count())
	}
}

func TestSetOutOfRangePanics(t *testing.T) {
	s := New(10)
	for _, i := range []int{-1, 10, 1000} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Set(%d) did not panic", i)
				}
			}()
			s.Set(i)
		}()
	}
}

func TestTestOutOfRangeIsFalse(t *testing.T) {
	s := New(10)
	if s.Test(-1) || s.Test(10) || s.Test(9999) {
		t.Fatal("out-of-range Test returned true")
	}
}

func TestCloneIndependence(t *testing.T) {
	s := Of(70, 1, 65)
	c := s.Clone()
	c.Set(2)
	if s.Test(2) {
		t.Fatal("Clone aliases original")
	}
	if !c.Test(1) || !c.Test(65) {
		t.Fatal("Clone lost members")
	}
}

func TestGrow(t *testing.T) {
	s := Of(10, 3, 9)
	g := s.Grow(200)
	if g.Len() != 200 {
		t.Fatalf("grown Len = %d", g.Len())
	}
	if !g.Test(3) || !g.Test(9) {
		t.Fatal("Grow lost members")
	}
	g.Set(150)
	if s.Test(3) != true || s.Len() != 10 {
		t.Fatal("Grow corrupted original")
	}
	// Growing to a smaller capacity clones.
	small := s.Grow(5)
	if small.Len() != 10 {
		t.Fatalf("Grow(5) Len = %d, want 10", small.Len())
	}
}

func TestOrAndAndNot(t *testing.T) {
	a := Of(128, 1, 64, 100)
	b := Of(128, 1, 2, 100)

	u := a.Clone()
	u.Or(b)
	want := []int{1, 2, 64, 100}
	if got := u.Members(); !equalInts(got, want) {
		t.Fatalf("Or = %v, want %v", got, want)
	}

	i := a.Clone()
	i.And(b)
	if got := i.Members(); !equalInts(got, []int{1, 100}) {
		t.Fatalf("And = %v", got)
	}
}

func TestMismatchedCapacityPanics(t *testing.T) {
	a, b := New(10), New(20)
	defer func() {
		if recover() == nil {
			t.Fatal("Or on mismatched capacities did not panic")
		}
	}()
	a.Or(b)
}

func TestIntersectsSubsetEqual(t *testing.T) {
	a := Of(100, 5, 50)
	b := Of(100, 50, 99)
	c := Of(100, 5)
	if !a.Intersects(b) {
		t.Fatal("a should intersect b")
	}
	if c.Intersects(b) {
		t.Fatal("c should not intersect b")
	}
	if !c.IsSubsetOf(a) {
		t.Fatal("c ⊆ a expected")
	}
	if a.IsSubsetOf(c) {
		t.Fatal("a ⊄ c expected")
	}
	if !a.Equal(a.Clone()) {
		t.Fatal("a should equal its clone")
	}
	// Equal ignores capacity.
	if !Of(10, 3).Equal(Of(1000, 3)) {
		t.Fatal("Equal should ignore capacity")
	}
	if Of(10, 3).Equal(Of(1000, 3, 500)) {
		t.Fatal("sets with different members reported equal")
	}
}

func TestNextIteration(t *testing.T) {
	s := Of(300, 0, 63, 64, 257, 299)
	var got []int
	for i := s.Next(0); i >= 0; i = s.Next(i + 1) {
		got = append(got, i)
	}
	if !equalInts(got, []int{0, 63, 64, 257, 299}) {
		t.Fatalf("iteration = %v", got)
	}
	if s.Next(-5) != 0 {
		t.Fatalf("Next(-5) = %d, want 0", s.Next(-5))
	}
	if s.Next(300) != -1 {
		t.Fatal("Next past capacity should be -1")
	}
	if New(0).Next(0) != -1 {
		t.Fatal("Next on empty capacity should be -1")
	}
}

func TestForEachMembersAgree(t *testing.T) {
	s := Of(128, 7, 13, 127)
	var viaForEach []int
	s.ForEach(func(i int) { viaForEach = append(viaForEach, i) })
	if !equalInts(viaForEach, s.Members()) {
		t.Fatalf("ForEach %v != Members %v", viaForEach, s.Members())
	}
}

func TestString(t *testing.T) {
	if got := Of(64, 2, 5).String(); got != "{2, 5}" {
		t.Fatalf("String = %q", got)
	}
	if got := New(8).String(); got != "{}" {
		t.Fatalf("empty String = %q", got)
	}
}

// Property: Or is commutative and idempotent; a & b ⊆ a ⊆ a | b;
// Count matches member slice length.
func TestQuickSetAlgebra(t *testing.T) {
	const n = 192
	mk := func(seed int64) Set {
		r := rand.New(rand.NewSource(seed))
		s := New(n)
		for i := 0; i < n; i++ {
			if r.Intn(3) == 0 {
				s.Set(i)
			}
		}
		return s
	}
	f := func(sa, sb int64) bool {
		a, b := mk(sa), mk(sb)
		ab := a.Clone()
		ab.Or(b)
		ba := b.Clone()
		ba.Or(a)
		if !ab.Equal(ba) {
			return false
		}
		// idempotence
		aa := a.Clone()
		aa.Or(a)
		if !aa.Equal(a) {
			return false
		}
		// a & b ⊆ a, a ⊆ a | b
		ia := a.Clone()
		ia.And(b)
		if !ia.IsSubsetOf(a) || !a.IsSubsetOf(ab) {
			return false
		}
		// |members| == Count
		if len(a.Members()) != a.Count() {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	sort.Ints(a)
	sort.Ints(b)
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func BenchmarkOr(b *testing.B) {
	x := Of(1024, 1, 500, 1000)
	y := Of(1024, 3, 501, 1023)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x.Or(y)
	}
}

func BenchmarkOrAnd(b *testing.B) {
	x := New(1024)
	mask := Of(1024, 1, 500, 1000)
	row := Of(1024, 1, 3, 501, 1000, 1023)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x.OrAnd(row, mask)
	}
}

// BenchmarkOrAndSplit is the unfused equivalent of OrAnd (clone, And,
// Or) — the before side of the fused-kernel comparison.
func BenchmarkOrAndSplit(b *testing.B) {
	x := New(1024)
	mask := Of(1024, 1, 500, 1000)
	row := Of(1024, 1, 3, 501, 1000, 1023)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tmp := row.Clone()
		tmp.And(mask)
		x.Or(tmp)
	}
}

func BenchmarkMax(b *testing.B) {
	s := Of(1024, 3, 77, 500)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if s.Max() != 500 {
			b.Fatal("wrong max")
		}
	}
}

func BenchmarkNextIterate(b *testing.B) {
	s := New(1024)
	for i := 0; i < 1024; i += 7 {
		s.Set(i)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := 0
		for j := s.Next(0); j >= 0; j = s.Next(j + 1) {
			c++
		}
		if c == 0 {
			b.Fatal("no members")
		}
	}
}

func TestMixedCapacityOps(t *testing.T) {
	// Or/And accept a shorter operand (missing words read as
	// zero) — the contract a successor's rows rely on when they absorb
	// sets built over the smaller parent carrier.
	long := Of(130, 1, 64, 129)
	short := Of(65, 1, 64)

	s := long.Clone()
	s.Or(short)
	if !equalInts(s.Members(), []int{1, 64, 129}) {
		t.Fatalf("Or with shorter operand: %v", s)
	}

	s = long.Clone()
	s.And(short)
	if !equalInts(s.Members(), []int{1, 64}) {
		t.Fatalf("And with shorter operand must clear the tail: %v", s)
	}

	// And with a longer operand: words beyond the receiver are
	// irrelevant.
	s = Of(65, 1, 64)
	s.And(Of(130, 64, 129))
	if !equalInts(s.Members(), []int{64}) {
		t.Fatalf("And with longer operand: %v", s)
	}

	// Or with a longer operand stays a misuse.
	defer func() {
		if recover() == nil {
			t.Fatal("Or with longer operand must panic")
		}
	}()
	s = Of(65, 1)
	s.Or(Of(130, 129))
}

func TestFromWords(t *testing.T) {
	words := []uint64{0, 0}
	s := FromWords(words, 70)
	s.Set(69)
	if words[1] == 0 {
		t.Fatal("FromWords must alias the given words")
	}
	if s.Len() != 70 || !s.Test(69) {
		t.Fatalf("FromWords set: len=%d %v", s.Len(), s)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("FromWords with too few words must panic")
		}
	}()
	FromWords(words, 200)
}
