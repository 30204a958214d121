package sc

import (
	"testing"

	"repro/internal/event"
	"repro/internal/lang"
)

func TestSnapshotRoundTrip(t *testing.T) {
	p := lang.Prog{
		lang.SeqC(lang.AssignC("x", lang.V(1)), lang.AssignRelC("y", lang.V(1))),
		lang.SeqC(
			lang.WhileC(lang.Eq(lang.XA("y"), lang.V(0)), lang.SkipC()),
			lang.SwapC("l", 1),
			lang.AssignC("a", lang.X("x")),
		),
	}
	vars := map[event.Var]event.Val{"x": 0, "y": 0, "a": 0, "l": 0}
	seen := map[string]bool{}
	var walk func(c Config, depth int)
	walk = func(c Config, depth int) {
		if seen[c.Key()] || len(seen) > 200 {
			return
		}
		seen[c.Key()] = true
		r, err := Model.Restore(p, c.AppendSnapshot(nil))
		if err != nil {
			t.Fatalf("restore: %v", err)
		}
		if r.Fingerprint() != c.Fingerprint() {
			t.Fatalf("fingerprint drifted for %q", c.Key())
		}
		if r.Key() != c.Key() {
			t.Fatalf("key drifted:\n got %q\nwant %q", r.Key(), c.Key())
		}
		for _, ps := range c.Node().Steps() {
			for _, s := range c.AppendStepSuccessors(nil, ps) {
				walk(s, depth+1)
			}
		}
	}
	walk(NewConfig(p, vars), 0)
	if len(seen) < 15 {
		t.Fatalf("exploration too small to be meaningful: %d configs", len(seen))
	}
}

func TestSnapshotRejectsCorruption(t *testing.T) {
	p := lang.Prog{lang.AssignC("x", lang.V(1))}
	c := Model.New(p, map[event.Var]event.Val{"x": 0})
	blob := c.AppendSnapshot(nil)
	if _, err := Model.Restore(p, []byte{'R', snapshotVersion}); err == nil {
		t.Fatal("wrong backend tag restored without error")
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
