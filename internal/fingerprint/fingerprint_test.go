package fingerprint

import (
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/event"
	"repro/internal/relation"
)

// items returns n distinct event items with varied fields.
func items(n int) []FP {
	out := make([]FP, n)
	for i := range out {
		a := event.Action{Kind: event.Kind(i % 7), Loc: event.Var(rune('a' + i%5)), RVal: event.Val(i), WVal: event.Val(-i)}
		out[i] = EventItem(event.Thread(i%4), i/4, a)
	}
	return out
}

// TestAccOrderIndependent: the accumulated identity is a multiset hash
// — every permutation of the same items finalizes to the same FP — but
// it still depends on which items, how many times, and the item count.
func TestAccOrderIndependent(t *testing.T) {
	its := items(64)
	var ref Acc
	for _, fp := range its {
		ref.Add(fp)
	}
	want := Finalize(ref, len(its))
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		perm := rng.Perm(len(its))
		var a Acc
		for _, i := range perm {
			a.Add(its[i])
		}
		if got := Finalize(a, len(its)); got != want {
			t.Fatalf("permutation %d finalized to %v, want %v", trial, got, want)
		}
	}

	var dropped Acc
	for _, fp := range its[1:] {
		dropped.Add(fp)
	}
	if Finalize(dropped, len(its)-1) == want {
		t.Fatal("dropping an item left the fingerprint unchanged")
	}
	doubled := ref
	doubled.Add(its[0])
	if Finalize(doubled, len(its)+1) == want {
		t.Fatal("repeating an item left the fingerprint unchanged")
	}
	if Finalize(ref, len(its)+1) == want {
		t.Fatal("the item count does not reach the fingerprint")
	}
}

// TestEventItemSensitive: changing any single field of an event item —
// thread, position, kind, location, read or written value — changes
// its fingerprint.
func TestEventItemSensitive(t *testing.T) {
	base := event.Action{Kind: event.UpdRA, Loc: "x", RVal: 1, WVal: 2}
	ref := EventItem(1, 3, base)
	variants := map[string]FP{
		"thread":   EventItem(2, 3, base),
		"position": EventItem(1, 4, base),
		"kind":     EventItem(1, 3, event.Action{Kind: event.WrRel, Loc: "x", RVal: 1, WVal: 2}),
		"location": EventItem(1, 3, event.Action{Kind: event.UpdRA, Loc: "y", RVal: 1, WVal: 2}),
		"rval":     EventItem(1, 3, event.Action{Kind: event.UpdRA, Loc: "x", RVal: -1, WVal: 2}),
		"wval":     EventItem(1, 3, event.Action{Kind: event.UpdRA, Loc: "x", RVal: 1, WVal: 3}),
		"swapped":  EventItem(1, 3, event.Action{Kind: event.UpdRA, Loc: "x", RVal: 2, WVal: 1}),
	}
	seen := map[FP]string{ref: "base"}
	for name, fp := range variants {
		if prev, dup := seen[fp]; dup {
			t.Errorf("%s variant collides with %s", name, prev)
		}
		seen[fp] = name
	}
}

// TestPairItemSensitive: a relation pair's fingerprint depends on its
// label, on each endpoint coordinate, and on its direction.
func TestPairItemSensitive(t *testing.T) {
	ref := PairItem(LabelRF, 1, 2, 3, 4)
	variants := map[string]FP{
		"label":     PairItem(LabelMO, 1, 2, 3, 4),
		"src thr":   PairItem(LabelRF, 0, 2, 3, 4),
		"src pos":   PairItem(LabelRF, 1, 5, 3, 4),
		"dst thr":   PairItem(LabelRF, 1, 2, 2, 4),
		"dst pos":   PairItem(LabelRF, 1, 2, 3, 0),
		"reversed":  PairItem(LabelRF, 3, 4, 1, 2),
		"transpose": PairItem(LabelRF, 2, 1, 4, 3),
	}
	seen := map[FP]string{ref: "base"}
	for name, fp := range variants {
		if prev, dup := seen[fp]; dup {
			t.Errorf("%s variant collides with %s", name, prev)
		}
		seen[fp] = name
	}
}

// TestHasherSensitive: flipping any single bit of an absorbed word, or
// any single byte of an absorbed string or byte slice, changes both
// lanes of the sum; and the length prefix keeps concatenations apart.
func TestHasherSensitive(t *testing.T) {
	sum := func(f func(h *Hasher)) FP {
		h := NewHasher()
		f(&h)
		return h.Sum()
	}
	words := []uint64{0, 1, 0xdeadbeef, 1 << 63}
	ref := sum(func(h *Hasher) {
		for _, w := range words {
			h.Word(w)
		}
	})
	for i := range words {
		for b := 0; b < 64; b++ {
			got := sum(func(h *Hasher) {
				for j, w := range words {
					if j == i {
						w ^= 1 << b
					}
					h.Word(w)
				}
			})
			if got.Hi == ref.Hi || got.Lo == ref.Lo {
				t.Fatalf("flipping bit %d of word %d left a lane unchanged: %v vs %v", b, i, got, ref)
			}
		}
	}

	s := "release-acquire"
	refS := sum(func(h *Hasher) { h.String(s) })
	refB := sum(func(h *Hasher) { h.Bytes([]byte(s)) })
	if refS != refB {
		t.Fatalf("String and Bytes disagree on the same bytes: %v vs %v", refS, refB)
	}
	for i := range s {
		mut := []byte(s)
		mut[i] ^= 0x20
		if got := sum(func(h *Hasher) { h.String(string(mut)) }); got.Hi == refS.Hi || got.Lo == refS.Lo {
			t.Fatalf("changing byte %d of the string left a lane unchanged", i)
		}
		if got := sum(func(h *Hasher) { h.Bytes(mut) }); got.Hi == refB.Hi || got.Lo == refB.Lo {
			t.Fatalf("changing byte %d of the slice left a lane unchanged", i)
		}
	}
	if sum(func(h *Hasher) { h.String("ab"); h.String("c") }) == sum(func(h *Hasher) { h.String("a"); h.String("bc") }) {
		t.Fatal("length prefix does not separate concatenations")
	}
	if sum(func(h *Hasher) { h.String("") }) == sum(func(h *Hasher) {}) {
		t.Fatal("an empty string absorbs nothing")
	}
}

// TestLanesIndependent: the two 64-bit lanes behave as independent
// hashes. Truncated to 16 bits each, the Lo lane collides on about
// n²/2¹⁷ pairs of n items; if the lanes were correlated, those pairs
// would collide in the Hi lane too, where independence predicts about
// one joint collision per 2¹⁶ Lo collisions. The lanes also disagree
// bit for bit about half the time.
func TestLanesIndependent(t *testing.T) {
	its := items(4096)
	byLo := map[uint64][]FP{}
	for _, fp := range its {
		byLo[fp.Lo&0xffff] = append(byLo[fp.Lo&0xffff], fp)
	}
	loPairs, joint := 0, 0
	for _, bucket := range byLo {
		for i := range bucket {
			for j := i + 1; j < len(bucket); j++ {
				loPairs++
				if bucket[i].Hi&0xffff == bucket[j].Hi&0xffff {
					joint++
				}
			}
		}
	}
	if loPairs < 32 {
		t.Fatalf("only %d truncated Lo collisions; the test has no power", loPairs)
	}
	if joint > 1 {
		t.Fatalf("%d of %d truncated Lo collisions also collide in Hi", joint, loPairs)
	}

	diff := 0
	for _, fp := range its {
		diff += bits.OnesCount64(fp.Hi ^ fp.Lo)
	}
	mean := float64(diff) / float64(len(its))
	if mean < 30 || mean > 34 {
		t.Fatalf("lanes differ in %.2f of 64 bits on average, want about 32", mean)
	}
}

func TestSetMissingFrom(t *testing.T) {
	its := items(10)
	a, b := NewSet(), NewSet()
	for _, fp := range its[:6] {
		a.Add(fp)
	}
	for _, fp := range its[3:] {
		b.Add(fp)
	}
	b.Add(its[4]) // re-adding is idempotent
	if a.Len() != 6 || b.Len() != 7 {
		t.Fatalf("Len: a=%d b=%d, want 6 and 7", a.Len(), b.Len())
	}
	if n := a.MissingFrom(b); n != 3 {
		t.Fatalf("a.MissingFrom(b) = %d, want 3", n)
	}
	if n := b.MissingFrom(a); n != 4 {
		t.Fatalf("b.MissingFrom(a) = %d, want 4", n)
	}
	if n := a.MissingFrom(a); n != 0 {
		t.Fatalf("a.MissingFrom(a) = %d, want 0", n)
	}
	if n := NewSet().MissingFrom(a); n != 0 {
		t.Fatalf("empty set missing %d, want 0", n)
	}
	if !a.Has(its[0]) || a.Has(its[9]) {
		t.Fatal("Has disagrees with Add")
	}
}

// TestCanonicalRenamingInvariance: Canonical identifies an execution
// up to the interleaving that built it. The same events, rf and mo
// under any tag order that keeps each thread's program order — with
// the initialising writes in any order, since they are renamed by
// variable — give the same FP, while changing the execution itself
// (program order within a thread, or one rf edge) changes it.
func TestCanonicalRenamingInvariance(t *testing.T) {
	type logical struct {
		tid event.Thread
		act event.Action
	}
	// Message passing plus an update: init x, y; thread 1 writes data
	// then flag; thread 2 reads flag then data; thread 3 bumps x.
	evs := []logical{
		{event.InitThread, event.Wr("y", 0)}, // 0
		{event.InitThread, event.Wr("x", 0)}, // 1
		{1, event.Wr("x", 1)},                // 2
		{1, event.WrR("y", 1)},               // 3
		{2, event.RdA("y", 1)},               // 4
		{2, event.Rd("x", 1)},                // 5
		{3, event.Upd("x", 1, 2)},            // 6
	}
	rf := [][2]int{{3, 4}, {2, 5}, {2, 6}}
	mo := [][2]int{{1, 2}, {2, 6}, {1, 6}, {0, 3}}

	// canonical builds the execution under the tag order given by
	// order (order[k] is the logical event tagged k).
	canonical := func(evs []logical, order []int, rf, mo [][2]int) FP {
		tag := make([]int, len(order))
		events := make([]event.Event, len(order))
		for k, i := range order {
			tag[i] = k
			events[k] = event.Event{Tag: event.Tag(k), Act: evs[i].act, TID: evs[i].tid}
		}
		rename := func(pairs [][2]int) relation.Rel {
			r := relation.New(len(order))
			for _, p := range pairs {
				r.Add(tag[p[0]], tag[p[1]])
			}
			return r
		}
		return Canonical(events, rename(rf), rename(mo))
	}

	identity := []int{0, 1, 2, 3, 4, 5, 6}
	want := canonical(evs, identity, rf, mo)
	rng := rand.New(rand.NewSource(3))
	threads := map[event.Thread][]int{}
	for i, e := range evs {
		threads[e.tid] = append(threads[e.tid], i)
	}
	for trial := 0; trial < 100; trial++ {
		// A random interleaving: program threads keep their order, the
		// initialising writes are shuffled among themselves.
		next := map[event.Thread]int{}
		inits := rng.Perm(len(threads[event.InitThread]))
		var order []int
		for len(order) < len(evs) {
			t := event.Thread(rng.Intn(4))
			k := next[t]
			if k == len(threads[t]) {
				continue
			}
			next[t]++
			if t == event.InitThread {
				order = append(order, threads[t][inits[k]])
			} else {
				order = append(order, threads[t][k])
			}
		}
		if got := canonical(evs, order, rf, mo); got != want {
			t.Fatalf("tag order %v: FP %v, want %v", order, got, want)
		}
	}

	// Swapping thread 2's two reads is a different execution.
	swapped := append([]logical(nil), evs...)
	swapped[4], swapped[5] = swapped[5], swapped[4]
	if canonical(swapped, identity, [][2]int{{3, 5}, {2, 4}, {2, 6}}, mo) == want {
		t.Fatal("reordering a thread's events left the FP unchanged")
	}
	if canonical(evs, identity, [][2]int{{3, 4}, {1, 5}, {2, 6}}, mo) == want {
		t.Fatal("moving an rf edge left the FP unchanged")
	}
}
