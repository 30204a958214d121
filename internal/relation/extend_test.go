package relation

import (
	"math/rand"
	"sync"
	"testing"
)

// withSpare returns a copy of r whose backing has spare zeroed rows of
// capacity beyond its carrier.
func withSpare(r Rel, spare int) Rel {
	words := make([]uint64, len(r.words), len(r.words)+spare*r.stride)
	copy(words, r.words)
	return Rel{n: r.n, stride: r.stride, words: words}
}

// shares reports whether a and b start at the same backing word.
func shares(a, b Rel) bool {
	return len(a.words) > 0 && len(b.words) > 0 && &a.words[0] == &b.words[0]
}

// TestExtendClaimOnce races N extenders of one relation for its tail:
// exactly one wins the claim and extends the parent's backing in
// place, every other one gets a private copy, and all of them see the
// parent's pairs and an empty new row. Run it under -race: only the
// winner may write the shared row.
func TestExtendClaimOnce(t *testing.T) {
	const workers = 16
	rng := rand.New(rand.NewSource(7))
	parent := withSpare(randRel(rng, 40, 0.2), 4)
	snapshot := parent.Clone()
	var c Claim
	out := make([]Rel, workers)
	var wg sync.WaitGroup
	for i := range out {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := parent.Extend(&c)
			r.Add(40, i%40) // the new row only
			r.Add(40, 40)
			out[i] = r
		}()
	}
	wg.Wait()
	winners := 0
	for i, r := range out {
		if shares(r, parent) {
			winners++
		}
		want := snapshot.Grow(41)
		want.Add(40, i%40)
		want.Add(40, 40)
		if !r.Equal(want) {
			t.Errorf("extender %d: %s, want %s", i, r, want)
		}
	}
	if winners != 1 {
		t.Fatalf("%d extenders won the claim, want exactly 1", winners)
	}
	if !parent.Equal(snapshot) {
		t.Fatal("extension changed the parent")
	}
	if c.Take() {
		t.Fatal("claim was winnable again after the race")
	}
}

// TestExtendSliceClaimOnce is TestExtendClaimOnce for the slice form.
func TestExtendSliceClaimOnce(t *testing.T) {
	const workers = 16
	parent := make([]int, 5, 8)
	for i := range parent {
		parent[i] = i + 1
	}
	var c Claim
	var wg sync.WaitGroup
	var mu sync.Mutex
	won := 0
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := Extend(parent, &c)
			if len(s) != 6 || s[5] != 0 {
				t.Errorf("extension %v: want 6 elements ending in 0", s)
				return
			}
			s[5] = 100 + i
			if &s[0] == &parent[0] {
				mu.Lock()
				won++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if won != 1 {
		t.Fatalf("%d extenders won the claim, want exactly 1", won)
	}
	for i, v := range parent {
		if v != i+1 {
			t.Fatalf("parent changed: %v", parent)
		}
	}
}

// TestExtendCopyMatchesGrowAlloc checks that an unclaimed extension —
// nil claim, lost claim or claimed in place — holds exactly what
// GrowAlloc's copy holds, across carrier sizes on both sides of the
// word boundaries.
func TestExtendCopyMatchesGrowAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 5, 62, 63, 64, 65, 100, 127, 128, 129} {
		r := randRel(rng, n, 0.1)
		want := r.GrowAlloc(n+1, newAllocator(n+1))
		var taken Claim
		taken.Take()
		spare := withSpare(r, 1)
		for name, got := range map[string]Rel{
			"nil claim":  r.Extend(nil),
			"lost claim": spare.Extend(&taken),
			"in place":   spare.Extend(new(Claim)),
		} {
			if got.Size() != n+1 || !got.Equal(want) {
				t.Errorf("n=%d %s: %s, want %s", n, name, got, want)
			}
		}
	}
}

// TestExtendFallsBackToCopy checks the two conditions besides the
// claim: a stride change (64 → 65 elements) and exhausted capacity
// both copy, and neither takes the claim.
func TestExtendFallsBackToCopy(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for name, r := range map[string]Rel{
		"stride 64→65": withSpare(randRel(rng, 64, 0.1), 8),
		"no capacity":  randRel(rng, 40, 0.1),
	} {
		var c Claim
		got := r.Extend(&c)
		if shares(got, r) {
			t.Errorf("%s: extension shares the parent's backing", name)
		}
		if !got.Equal(r.Grow(r.Size() + 1)) {
			t.Errorf("%s: extension lost pairs", name)
		}
		if !c.Take() {
			t.Errorf("%s: the fallback took the claim", name)
		}
	}
	// A copy's spare stops at the stride boundary: at 64 elements there
	// is no row left to share, so the next extension copies too.
	r := New(62).Extend(nil).Extend(new(Claim))
	if r.Size() != 64 || cap(r.words) != len(r.words) {
		t.Fatalf("64-element extension has %d spare words", cap(r.words)-len(r.words))
	}
}

// TestExtendTailIsZero checks that a claim winner receives zeroed
// storage for its new row and column, along a chain of in-place
// extensions from a copy's spare, and that the slice form's new
// element is zero.
func TestExtendTailIsZero(t *testing.T) {
	r := FromPairs(10, [][2]int{{0, 9}, {9, 0}, {5, 5}}).Extend(nil)
	for i := 0; i < 3; i++ {
		var c Claim
		next := r.Extend(&c)
		if !shares(next, r) {
			t.Fatalf("extension %d copied despite spare capacity", i)
		}
		g := next.Size() - 1
		if !next.Row(g).Empty() {
			t.Fatalf("extension %d: new row not empty", i)
		}
		for j := 0; j < g; j++ {
			if next.Has(j, g) {
				t.Fatalf("extension %d: new column holds (%d,%d)", i, j, g)
			}
		}
		next.Add(g, 0)
		next.Add(g, g)
		r = next
	}
	for _, w := range r.words[len(r.words):cap(r.words)] {
		if w != 0 {
			t.Fatal("spare beyond the chain is not zero")
		}
	}
	s := Extend(Extend([]uint64{7, 8}, nil), new(Claim))
	if len(s) != 4 || s[2] != 0 || s[3] != 0 {
		t.Fatalf("slice extension %v: want [7 8 0 0]", s)
	}
}
