package explore

import (
	"math/rand"
	"testing"
	"unsafe"

	"repro/internal/fingerprint"
)

// TestSeenSlotSize pins the slot at 40 bytes: a larger slot costs more
// per admitted configuration than the map it replaced.
func TestSeenSlotSize(t *testing.T) {
	if n := unsafe.Sizeof(slot{}); n > 40 {
		t.Fatalf("slot is %d bytes, want <= 40", n)
	}
}

// TestSeenEntryPacking: depth, term and occupancy share one word, and
// setting the depth keeps the flags.
func TestSeenEntryPacking(t *testing.T) {
	for _, term := range []bool{false, true} {
		for _, d := range []int32{0, 1, 12345, maxDepth} {
			e := newEntry(d, 5, term)
			e.word |= wordUsed
			if e.depth() != d || e.term() != term || e.expandedAt != -1 || e.sleep != 5 {
				t.Fatalf("newEntry(%d, 5, %v) = depth %d term %v expandedAt %d sleep %d",
					d, term, e.depth(), e.term(), e.expandedAt, e.sleep)
			}
			e.setDepth(d / 2)
			if e.depth() != d/2 || e.term() != term || e.word&wordUsed == 0 {
				t.Fatalf("setDepth(%d) on depth %d term %v: depth %d term %v used %v",
					d/2, d, term, e.depth(), e.term(), e.word&wordUsed != 0)
			}
		}
	}
}

// TestSeenTableMatchesMap runs random insert/find/remove sequences
// against a map. Each case draws its keys from a small pool, so keys
// are inserted, found, removed and re-inserted many times over:
//   - zero-key: FP{} is an ordinary key (no fingerprint marks empty);
//   - shared-home: every key has the same Hi, so all probe from one
//     home slot at every table size;
//   - wrap: most keys' homes are the last two slots, so probe runs
//     wrap past the end of the array into the homes of the rest, and
//     backward shifts wrap with them;
//   - growth: mostly inserts, so finds run across many doublings.
func TestSeenTableMatchesMap(t *testing.T) {
	cases := []struct {
		name    string
		key     func(rng *rand.Rand) fingerprint.FP
		ops     int
		inserts int // per cent of operations that insert
	}{
		{"zero-key", func(rng *rand.Rand) fingerprint.FP {
			if rng.Intn(4) == 0 {
				return fingerprint.FP{}
			}
			return fingerprint.FP{Hi: uint64(rng.Intn(64)), Lo: uint64(rng.Intn(2))}
		}, 5000, 50},
		{"shared-home", func(rng *rand.Rand) fingerprint.FP {
			return fingerprint.FP{Hi: 3, Lo: uint64(rng.Intn(40))}
		}, 5000, 50},
		{"wrap", func(rng *rand.Rand) fingerprint.FP {
			if rng.Intn(3) == 0 {
				// Homes near the start, inside the wrapped runs.
				return fingerprint.FP{Hi: uint64(rng.Intn(3)), Lo: uint64(rng.Intn(8))}
			}
			return fingerprint.FP{Hi: ^uint64(0) - uint64(rng.Intn(2)), Lo: uint64(rng.Intn(20))}
		}, 5000, 50},
		{"growth", func(rng *rand.Rand) fingerprint.FP {
			return fingerprint.FP{Hi: rng.Uint64(), Lo: uint64(rng.Intn(4))}
		}, 20000, 90},
	}
	for ci, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(ci + 1)))
			var tab seenTable
			ref := map[fingerprint.FP]entry{}
			grows := 0
			for op := 0; op < tc.ops; op++ {
				fp := tc.key(rng)
				want, had := ref[fp]
				switch r := rng.Intn(100); {
				case r < tc.inserts:
					if had {
						// A known key is relaxed in place, as admit does.
						e := tab.find(fp)
						if e == nil {
							t.Fatalf("op %d: %v inserted but not found", op, fp)
						}
						e.setDepth(e.depth() / 2)
						e.expandedAt = int32(op)
						ref[fp] = *e
						break
					}
					size := len(tab.slots)
					e := newEntry(int32(rng.Intn(1000)), threadMask(rng.Uint64()), rng.Intn(2) == 0)
					tab.insert(fp, e)
					if len(tab.slots) != size {
						grows++
					}
					e.word |= wordUsed
					ref[fp] = e
				case r < tc.inserts+(100-tc.inserts)/2:
					if tab.remove(fp) != had {
						t.Fatalf("op %d: remove(%v) = %v, want %v", op, fp, !had, had)
					}
					delete(ref, fp)
				default:
					e := tab.find(fp)
					if (e != nil) != had || (had && *e != want) {
						t.Fatalf("op %d: find(%v) = %v, want %v (present %v)", op, fp, e, want, had)
					}
				}
				if tab.n != len(ref) {
					t.Fatalf("op %d: table holds %d, map %d", op, tab.n, len(ref))
				}
			}
			for fp, want := range ref {
				if e := tab.find(fp); e == nil || *e != want {
					t.Fatalf("final find(%v) = %v, want %v", fp, e, want)
				}
			}
			n := 0
			for fp, e := range tab.all {
				if want, ok := ref[fp]; !ok || *e != want {
					t.Fatalf("all yields %v = %v, map has %v (present %v)", fp, *e, want, ok)
				}
				n++
			}
			if n != len(ref) {
				t.Fatalf("all yields %d entries, map holds %d", n, len(ref))
			}
			t.Logf("%d keys, %d slots, %d grows", len(ref), len(tab.slots), grows)
			if tc.name == "growth" && grows < 8 {
				t.Fatalf("growth case grew %d times, want >= 8", grows)
			}
		})
	}
}

// TestSeenBytesPerState: the serial E16 writers=6 search admits
// 121,344 configurations, which fixes every shard's table size, so
// seen_bytes is deterministic. The map the tables replaced cost 67–89
// bytes per entry; the tables stay within 96.
func TestSeenBytesPerState(t *testing.T) {
	res, snap := writers6Serial()
	admitted := snap.Counter("states_admitted")
	if res.Explored != 121344 || admitted != uint64(res.Explored) {
		t.Fatalf("serial writers=6: explored=%d states_admitted=%d, want 121344", res.Explored, admitted)
	}
	bytes := snap.Gauge("seen_bytes")
	per := float64(bytes) / float64(admitted)
	t.Logf("seen_bytes=%d (%.1f per admitted state)", bytes, per)
	if per > 96 {
		t.Errorf("seen_bytes / states_admitted = %.1f, want <= 96", per)
	}
}
