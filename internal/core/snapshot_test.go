package core

import (
	"testing"

	"repro/internal/event"
	"repro/internal/lang"
)

// snapshotProg exercises every replayed step kind: relaxed and
// releasing writes, relaxed and acquiring reads, non-atomic accesses,
// and an RMW update.
func snapshotProg() (lang.Prog, map[event.Var]event.Val) {
	p := lang.Prog{
		lang.SeqC(
			lang.AssignNAC("d", lang.V(5)),
			lang.AssignC("x", lang.V(1)),
			lang.AssignRelC("y", lang.V(1)),
		),
		lang.SeqC(
			lang.IfC(lang.Eq(lang.XA("y"), lang.V(1)),
				lang.AssignC("a", lang.Add(lang.X("x"), lang.XNA("d"))),
				lang.SkipC()),
			lang.SwapC("l", 1),
		),
	}
	vars := map[event.Var]event.Val{"x": 0, "y": 0, "a": 0, "d": 0, "l": 0}
	return p, vars
}

// collectConfigs explores breadth-first (unreduced) up to limit
// configurations, deduplicating by fingerprint.
func collectConfigs(root Config, limit int) []Config {
	seen := map[string]bool{root.Key(): true}
	queue := []Config{root}
	out := []Config{root}
	for len(queue) > 0 && len(out) < limit {
		c := queue[0]
		queue = queue[1:]
		for _, s := range c.Successors() {
			if k := s.Key(); !seen[k] {
				seen[k] = true
				out = append(out, s)
				queue = append(queue, s)
			}
		}
	}
	return out
}

func TestSnapshotRoundTrip(t *testing.T) {
	p, vars := snapshotProg()
	cfgs := collectConfigs(NewConfig(p, vars), 400)
	if len(cfgs) < 30 {
		t.Fatalf("exploration too small to be meaningful: %d configs", len(cfgs))
	}
	for i, c := range cfgs {
		blob := c.AppendSnapshot(nil)
		r, err := Model.Restore(p, blob)
		if err != nil {
			t.Fatalf("config %d: restore: %v", i, err)
		}
		if got, want := r.Fingerprint(), c.Fingerprint(); got != want {
			t.Fatalf("config %d: fingerprint drifted: got %v want %v", i, got, want)
		}
		// Key is the exact canonical identity (CanonicalSignature) —
		// stronger than the 128-bit fingerprint.
		if got, want := r.Key(), c.Key(); got != want {
			t.Fatalf("config %d: key drifted:\n got %q\nwant %q", i, got, want)
		}
		if msgs := r.AuditIncremental(); len(msgs) != 0 {
			t.Fatalf("config %d: restored state fails incremental audit: %v", i, msgs)
		}
	}
}

// TestSnapshotRoundTripSuccessors checks a restored configuration
// expands to the same successor set as the original — i.e. the replay
// reconstructs observability, not just the fingerprinted structure.
func TestSnapshotRoundTripSuccessors(t *testing.T) {
	p, vars := snapshotProg()
	for i, c := range collectConfigs(NewConfig(p, vars), 60) {
		r, err := Model.Restore(p, c.AppendSnapshot(nil))
		if err != nil {
			t.Fatalf("config %d: restore: %v", i, err)
		}
		want := map[string]int{}
		for _, s := range c.Successors() {
			want[s.Key()]++
		}
		got := map[string]int{}
		for _, s := range r.(Config).Successors() {
			got[s.Key()]++
		}
		if len(got) != len(want) {
			t.Fatalf("config %d: successor count drifted: got %d want %d", i, len(got), len(want))
		}
		for k, n := range want {
			if got[k] != n {
				t.Fatalf("config %d: successor multiset drifted at %q", i, k)
			}
		}
	}
}

func TestSnapshotRejectsCorruption(t *testing.T) {
	p, vars := snapshotProg()
	c := NewConfig(p, vars)
	for _, s := range c.Successors() {
		c = s // one step in, so the blob has a replayed event
		break
	}
	blob := c.AppendSnapshot(nil)
	if _, err := Model.Restore(p, nil); err == nil {
		t.Fatal("empty blob restored without error")
	}
	if _, err := Model.Restore(p, []byte{'S', snapshotVersion}); err == nil {
		t.Fatal("wrong backend tag restored without error")
	}
	if _, err := Model.Restore(p, []byte{'R', 99}); err == nil {
		t.Fatal("unknown version restored without error")
	}
	for n := 0; n < len(blob); n++ {
		if _, err := Model.Restore(p, blob[:n]); err == nil {
			t.Fatalf("truncation to %d bytes restored without error", n)
		}
	}
	if _, err := Model.Restore(p, append(append([]byte(nil), blob...), 0)); err == nil {
		t.Fatal("trailing garbage restored without error")
	}
}
