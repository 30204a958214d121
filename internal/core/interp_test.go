package core

import (
	"testing"

	"repro/internal/event"
	"repro/internal/lang"
)

// collectOutcomes explores all maximal runs of a configuration and
// returns the set of final-state summaries produced by summarise.
func collectOutcomes(t *testing.T, c Config, summarise func(Config) string) map[string]bool {
	t.Helper()
	out := map[string]bool{}
	seen := map[string]bool{}
	var dfs func(Config)
	dfs = func(cfg Config) {
		key := cfg.Key()
		if seen[key] {
			return
		}
		seen[key] = true
		succ := cfg.Successors()
		if len(succ) == 0 {
			if !cfg.Terminated() {
				t.Fatalf("stuck non-terminated configuration: %s", cfg.Program())
			}
			out[summarise(cfg)] = true
			return
		}
		for _, s := range succ {
			dfs(s)
		}
	}
	dfs(c)
	return out
}

func TestInterpSilentStep(t *testing.T) {
	c := NewConfig(lang.Prog{lang.SeqC(lang.SkipC(), lang.SkipC())},
		map[event.Var]event.Val{"x": 0})
	succ := c.Successors()
	if len(succ) != 1 {
		t.Fatalf("succ = %+v", succ)
	}
	if succ[0].S != c.S {
		t.Fatal("silent step must not change the state")
	}
}

// Example 4.5's program: thread 1: z := x, thread 2: x := 5. Under the
// RA semantics the read of x can only return 0 (init) or 5, and 5 only
// after thread 2's write — never "out of thin air".
func TestExample45NoThinAirOperationally(t *testing.T) {
	p := lang.Prog{
		lang.AssignC("z", lang.X("x")),
		lang.AssignC("x", lang.V(5)),
	}
	c := NewConfig(p, map[event.Var]event.Val{"x": 0, "z": 0})
	outcomes := collectOutcomes(t, c, func(fc Config) string {
		g, _ := fc.S.Last("z")
		return fc.S.Event(g).Act.String()
	})
	want := map[string]bool{"wr(z,0)": true, "wr(z,5)": true}
	if len(outcomes) != len(want) {
		t.Fatalf("outcomes = %v", outcomes)
	}
	for k := range want {
		if !outcomes[k] {
			t.Errorf("missing outcome %s", k)
		}
	}
}

// The read-read coherence shape: a thread that reads the new value of
// x can never subsequently read the old value.
func TestCoherenceReadRead(t *testing.T) {
	p := lang.Prog{
		lang.AssignC("x", lang.V(1)),
		lang.SeqC(
			lang.AssignC("a", lang.X("x")),
			lang.AssignC("b", lang.X("x")),
		),
	}
	c := NewConfig(p, map[event.Var]event.Val{"x": 0, "a": 0, "b": 0})
	outcomes := collectOutcomes(t, c, func(fc Config) string {
		ga, _ := fc.S.Last("a")
		gb, _ := fc.S.Last("b")
		return fc.S.Event(ga).Act.String() + fc.S.Event(gb).Act.String()
	})
	if outcomes["wr(a,1)wr(b,0)"] {
		t.Fatal("coherence violation: read 1 then 0")
	}
	for _, ok := range []string{"wr(a,0)wr(b,0)", "wr(a,0)wr(b,1)", "wr(a,1)wr(b,1)"} {
		if !outcomes[ok] {
			t.Errorf("missing legal outcome %s", ok)
		}
	}
}

// Message passing with release/acquire forbids the stale-data outcome;
// see Example 5.7.
func TestMessagePassingRA(t *testing.T) {
	p := lang.Prog{
		lang.SeqC(
			lang.AssignC("d", lang.V(5)),
			lang.AssignRelC("f", lang.V(1)),
		),
		lang.SeqC(
			lang.AssignC("rf", lang.XA("f")),
			lang.AssignC("rd", lang.X("d")),
		),
	}
	c := NewConfig(p, map[event.Var]event.Val{"d": 0, "f": 0, "rf": 0, "rd": 0})
	outcomes := collectOutcomes(t, c, func(fc Config) string {
		gf, _ := fc.S.Last("rf")
		gd, _ := fc.S.Last("rd")
		return fc.S.Event(gf).Act.String() + "," + fc.S.Event(gd).Act.String()
	})
	if outcomes["wr(rf,1),wr(rd,0)"] {
		t.Fatal("MP violation: flag seen but data stale under release/acquire")
	}
	if !outcomes["wr(rf,1),wr(rd,5)"] || !outcomes["wr(rf,0),wr(rd,0)"] {
		t.Fatalf("expected outcomes missing: %v", outcomes)
	}
}

// Fully relaxed message passing allows the stale read.
func TestMessagePassingRelaxedAllowsStale(t *testing.T) {
	p := lang.Prog{
		lang.SeqC(
			lang.AssignC("d", lang.V(5)),
			lang.AssignC("f", lang.V(1)), // relaxed flag write
		),
		lang.SeqC(
			lang.AssignC("rf", lang.X("f")), // relaxed flag read
			lang.AssignC("rd", lang.X("d")),
		),
	}
	c := NewConfig(p, map[event.Var]event.Val{"d": 0, "f": 0, "rf": 0, "rd": 0})
	outcomes := collectOutcomes(t, c, func(fc Config) string {
		gf, _ := fc.S.Last("rf")
		gd, _ := fc.S.Last("rd")
		return fc.S.Event(gf).Act.String() + "," + fc.S.Event(gd).Act.String()
	})
	if !outcomes["wr(rf,1),wr(rd,0)"] {
		t.Fatal("relaxed MP must allow the stale-data outcome")
	}
}

// Store buffering: the both-read-zero outcome is allowed even with
// release/acquire annotations (RA is weaker than SC).
func TestStoreBufferingWeakOutcomeAllowed(t *testing.T) {
	p := lang.Prog{
		lang.SeqC(
			lang.AssignRelC("x", lang.V(1)),
			lang.AssignC("a", lang.XA("y")),
		),
		lang.SeqC(
			lang.AssignRelC("y", lang.V(1)),
			lang.AssignC("b", lang.XA("x")),
		),
	}
	c := NewConfig(p, map[event.Var]event.Val{"x": 0, "y": 0, "a": 0, "b": 0})
	outcomes := collectOutcomes(t, c, func(fc Config) string {
		ga, _ := fc.S.Last("a")
		gb, _ := fc.S.Last("b")
		return fc.S.Event(ga).Act.String() + fc.S.Event(gb).Act.String()
	})
	if !outcomes["wr(a,0)wr(b,0)"] {
		t.Fatal("SB weak outcome must be allowed under RA")
	}
}

// Load buffering is excluded in the RAR fragment: sb ∪ rf is acyclic,
// so both threads cannot read the other's (later) write.
func TestLoadBufferingForbidden(t *testing.T) {
	p := lang.Prog{
		lang.SeqC(lang.AssignC("a", lang.X("x")), lang.AssignC("y", lang.V(1))),
		lang.SeqC(lang.AssignC("b", lang.X("y")), lang.AssignC("x", lang.V(1))),
	}
	c := NewConfig(p, map[event.Var]event.Val{"x": 0, "y": 0, "a": 0, "b": 0})
	outcomes := collectOutcomes(t, c, func(fc Config) string {
		ga, _ := fc.S.Last("a")
		gb, _ := fc.S.Last("b")
		return fc.S.Event(ga).Act.String() + fc.S.Event(gb).Act.String()
	})
	if outcomes["wr(a,1)wr(b,1)"] {
		t.Fatal("LB outcome must be forbidden in the RAR fragment")
	}
}

func TestConfigKeyDistinguishes(t *testing.T) {
	p := lang.Prog{lang.AssignC("x", lang.V(1))}
	c := NewConfig(p, map[event.Var]event.Val{"x": 0})
	succ := c.Successors()
	if len(succ) != 1 {
		t.Fatalf("succ = %d", len(succ))
	}
	if succ[0].Key() == c.Key() {
		t.Fatal("keys must differ after a step")
	}
	s := succ[0].S
	if e := s.Event(event.Tag(s.NumEvents() - 1)); e.Act != event.Wr("x", 1) || e.TID != 1 {
		t.Fatalf("new event = %+v", e)
	}
}

func BenchmarkSuccessors(b *testing.B) {
	p := lang.Prog{
		lang.SeqC(lang.AssignRelC("x", lang.V(1)), lang.AssignC("a", lang.XA("y"))),
		lang.SeqC(lang.AssignRelC("y", lang.V(1)), lang.AssignC("b", lang.XA("x"))),
	}
	c := NewConfig(p, map[event.Var]event.Val{"x": 0, "y": 0, "a": 0, "b": 0})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if len(c.Successors()) == 0 {
			b.Fatal("no successors")
		}
	}
}

func BenchmarkStepRMWChain(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := Init(map[event.Var]event.Val{"t": 0})
		last, _ := s.Last("t")
		for j := 1; j <= 8; j++ {
			var u event.Event
			var err error
			s, u, err = s.StepRMW(event.Thread(j%2+1), "t", event.Val(j), last)
			if err != nil {
				b.Fatal(err)
			}
			last = u.Tag
		}
	}
}
