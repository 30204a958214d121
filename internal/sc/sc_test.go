package sc

import (
	"testing"

	"repro/internal/event"
	"repro/internal/lang"
)

func TestStoreBasics(t *testing.T) {
	s := Init(map[event.Var]event.Val{"x": 3})
	if v, ok := s.Read("x"); !ok || v != 3 {
		t.Fatalf("Read = %d, %v", v, ok)
	}
	if _, ok := s.Read("nope"); ok {
		t.Fatal("unknown variable readable")
	}
	s2 := s.write("x", 9)
	if v, _ := s2.Read("x"); v != 9 {
		t.Fatal("write lost")
	}
	if v, _ := s.Read("x"); v != 3 {
		t.Fatal("write mutated original")
	}
	if s.Signature() == s2.Signature() {
		t.Fatal("signatures identical across write")
	}
}

func TestFingerprintTracksStore(t *testing.T) {
	p := lang.NewTable().Intern(lang.Prog{lang.SkipC()})
	a := Config{node: p, S: Init(map[event.Var]event.Val{"x": 1, "y": 2})}
	b := Config{node: p, S: Init(map[event.Var]event.Val{"y": 2, "x": 1})}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("fingerprint depends on store construction order")
	}
	c := Config{node: p, S: a.S.write("x", 5)}
	if c.Fingerprint() == a.Fingerprint() {
		t.Fatal("fingerprint blind to store change")
	}
	// Write-back restores the identity (the multiset hash subtracts).
	d := Config{node: p, S: c.S.write("x", 1)}
	if d.Fingerprint() != a.Fingerprint() {
		t.Fatal("fingerprint not restored after write-back")
	}
	if got := d.AuditIncremental(); len(got) != 0 {
		t.Fatalf("store-hash audit: %v", got)
	}
}

// A same-value overwrite leaves the store equal to the parent's but
// is still a write transition; DeltaLabel must not render it as τ.
func TestDeltaLabelSameValueWrite(t *testing.T) {
	c := NewConfig(lang.Prog{lang.AssignC("x", lang.V(0))}, map[event.Var]event.Val{"x": 0})
	succ := c.AppendStepSuccessors(nil, c.Node().Steps()[0])
	if len(succ) != 1 {
		t.Fatalf("want 1 successor, got %d", len(succ))
	}
	if got := succ[0].DeltaLabel(c); got != "wr(x,0)" {
		t.Fatalf("DeltaLabel = %q, want wr(x,0)", got)
	}
	// And reads/silent steps stay τ.
	r := NewConfig(lang.Prog{lang.AssignC("r", lang.X("x"))}, map[event.Var]event.Val{"x": 7, "r": 0})
	rs := r.AppendStepSuccessors(nil, r.Node().Steps()[0])
	if got := rs[0].DeltaLabel(r); got != "τ" {
		t.Fatalf("read DeltaLabel = %q, want τ", got)
	}
}

func TestSuccessorsDeterministicReads(t *testing.T) {
	p := lang.Prog{lang.AssignC("r", lang.X("x"))}
	c := NewConfig(p, map[event.Var]event.Val{"x": 7, "r": 0})
	succ := c.AppendStepSuccessors(nil, c.Node().Steps()[0])
	if len(succ) != 1 {
		t.Fatalf("SC read must be deterministic, got %d successors", len(succ))
	}
	// The read value is the store value.
	succ2 := succ[0].AppendStepSuccessors(nil, succ[0].Node().Steps()[0]) // the write of r
	if len(succ2) != 1 {
		t.Fatal("write step missing")
	}
	if v, _ := succ2[0].S.Read("r"); v != 7 {
		t.Fatalf("r = %d, want 7", v)
	}
}
