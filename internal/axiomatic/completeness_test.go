package axiomatic

import (
	"testing"

	"repro/internal/event"
	"repro/internal/explore"
	"repro/internal/lang"
)

// Litmus programs used by the equivalence tests.

func progMP() (lang.Prog, map[event.Var]event.Val) {
	p := lang.Prog{
		lang.SeqC(lang.AssignC("d", lang.V(5)), lang.AssignRelC("f", lang.V(1))),
		lang.SeqC(lang.AssignC("a", lang.XA("f")), lang.AssignC("b", lang.X("d"))),
	}
	return p, map[event.Var]event.Val{"d": 0, "f": 0, "a": 0, "b": 0}
}

func progSB() (lang.Prog, map[event.Var]event.Val) {
	p := lang.Prog{
		lang.SeqC(lang.AssignC("x", lang.V(1)), lang.AssignC("a", lang.X("y"))),
		lang.SeqC(lang.AssignC("y", lang.V(1)), lang.AssignC("b", lang.X("x"))),
	}
	return p, map[event.Var]event.Val{"x": 0, "y": 0, "a": 0, "b": 0}
}

func progLB() (lang.Prog, map[event.Var]event.Val) {
	p := lang.Prog{
		lang.SeqC(lang.AssignC("a", lang.X("x")), lang.AssignC("y", lang.V(1))),
		lang.SeqC(lang.AssignC("b", lang.X("y")), lang.AssignC("x", lang.V(1))),
	}
	return p, map[event.Var]event.Val{"x": 0, "y": 0, "a": 0, "b": 0}
}

func prog2W() (lang.Prog, map[event.Var]event.Val) {
	p := lang.Prog{
		lang.SeqC(lang.AssignC("x", lang.V(1)), lang.AssignC("y", lang.V(2))),
		lang.SeqC(lang.AssignC("y", lang.V(1)), lang.AssignC("x", lang.V(2))),
	}
	return p, map[event.Var]event.Val{"x": 0, "y": 0}
}

func progRMW() (lang.Prog, map[event.Var]event.Val) {
	p := lang.Prog{
		lang.SwapC("t", 1),
		lang.SwapC("t", 2),
	}
	return p, map[event.Var]event.Val{"t": 0}
}

func TestValueDomain(t *testing.T) {
	p, vars := progMP()
	dom := ValueDomain(p, vars)
	want := []event.Val{0, 1, 5}
	if len(dom) != len(want) {
		t.Fatalf("domain = %v", dom)
	}
	for i, v := range want {
		if dom[i] != v {
			t.Fatalf("domain = %v, want %v", dom, want)
		}
	}
	// Swap values and control-flow literals are collected.
	p2 := lang.Prog{lang.SeqC(
		lang.SwapC("t", 7),
		lang.IfC(lang.Eq(lang.X("t"), lang.V(9)), lang.SkipC(), lang.SkipC()),
		lang.WhileC(lang.Ne(lang.X("t"), lang.V(11)), lang.LabelC("l", lang.SkipC())),
	)}
	dom2 := ValueDomain(p2, map[event.Var]event.Val{"t": 0})
	has := map[event.Val]bool{}
	for _, v := range dom2 {
		has[v] = true
	}
	for _, v := range []event.Val{0, 7, 9, 11} {
		if !has[v] {
			t.Fatalf("domain2 = %v missing %d", dom2, v)
		}
	}
}

func TestPreExecutionsShape(t *testing.T) {
	p, vars := progMP()
	domain := ValueDomain(p, vars)
	n := 0
	PreExecutions(p, vars, domain, 32, func(x Exec) bool {
		n++
		// Pre-executions are well-formed pre-states: SB-Total holds.
		if v := x.CheckSBTotal(); v != nil {
			t.Fatalf("pre-execution violates %v", v)
		}
		// 4 initials + 2 writes + 2 reads + 2 register writes.
		if x.N() != 10 {
			t.Fatalf("pre-execution has %d events", x.N())
		}
		return true
	})
	// Reads of f and d each range over domain {0,1,5}: 9 value
	// combinations, one pre-execution each (interleaving-deduped).
	if n != 9 {
		t.Fatalf("pre-execution count = %d, want 9", n)
	}
}

func TestPreExecutionsTruncation(t *testing.T) {
	// An infinite loop must trip the event bound, not hang.
	p := lang.Prog{lang.WhileC(lang.Eq(lang.X("x"), lang.V(0)), lang.SkipC())}
	vars := map[event.Var]event.Val{"x": 0}
	truncated := PreExecutions(p, vars, ValueDomain(p, vars), 6, func(x Exec) bool { return true })
	if !truncated {
		t.Fatal("unbounded loop did not report truncation")
	}
}

func TestExample45JustifyAndReplay(t *testing.T) {
	// thread 1: z := x, thread 2: x := 5. The pre-execution in which
	// the read returns 5 "before" the write exists is justifiable, and
	// the justification replays operationally along sb ∪ rf.
	p := lang.Prog{
		lang.AssignC("z", lang.X("x")),
		lang.AssignC("x", lang.V(5)),
	}
	vars := map[event.Var]event.Val{"x": 0, "z": 0}
	domain := ValueDomain(p, vars)

	var justified []Exec
	PreExecutions(p, vars, domain, 16, func(pre Exec) bool {
		pre.Justifications(func(j Exec) bool {
			justified = append(justified, j)
			return true
		})
		return true
	})
	if len(justified) == 0 {
		t.Fatal("no justification found")
	}
	sawThinAirRead := false
	for _, j := range justified {
		// Every justification is valid and replays to an identical
		// canonical state (Theorem 4.8).
		if !j.Valid() {
			t.Fatal("justification invalid")
		}
		st, err := j.ReplayFull()
		if err != nil {
			t.Fatalf("replay failed: %v\n%s", err, j)
		}
		got := FromState(st).CanonicalSignature()
		if got != j.CanonicalSignature() {
			t.Fatalf("replay signature mismatch:\n got %s\nwant %s", got, j.CanonicalSignature())
		}
		for _, e := range j.Events {
			if e.IsRead() && e.RdVal() == 5 {
				sawThinAirRead = true
			}
		}
	}
	if !sawThinAirRead {
		t.Fatal("the rd(x,5) pre-execution of Example 4.5 was not justified")
	}
}

func TestJustifyRejectsImpossibleRead(t *testing.T) {
	// A read of a value never written is unjustifiable.
	events := []event.Event{
		{Tag: 0, Act: event.Wr("x", 0), TID: 0},
		{Tag: 1, Act: event.Rd("x", 42), TID: 1},
	}
	x := NewExec(events)
	x.SB.Add(0, 1)
	if x.Justifiable() {
		t.Fatal("read of unwritten value justified")
	}
}

// operational is OperationalExecutions under a bound no loop-free test
// program reaches, failing unless the search ran to completion — a
// partial set would make every comparison meaningless.
func operational(tb testing.TB, p lang.Prog, vars map[event.Var]event.Val) map[string]Exec {
	tb.Helper()
	op, res := OperationalExecutions(p, vars, explore.Options{MaxEvents: 40})
	if res.Verdict != explore.VerdictProved || res.Truncated {
		tb.Fatalf("operational search incomplete: verdict=%s truncated=%v", res.Verdict, res.Truncated)
	}
	return op
}

// The central equivalence: operational outcome set == axiomatic
// outcome set, per litmus program (soundness ∩ completeness at
// program scale, Theorems 4.4 + 4.8).
func TestOperationalEqualsAxiomatic(t *testing.T) {
	cases := []struct {
		name string
		mk   func() (lang.Prog, map[event.Var]event.Val)
	}{
		{"MP", progMP},
		{"SB", progSB},
		{"LB", progLB},
		{"2W", prog2W},
		{"RMW", progRMW},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p, vars := c.mk()
			ax := ValidExecutions(p, vars, 40)
			op := operational(t, p, vars)
			if len(ax) == 0 || len(op) == 0 {
				t.Fatalf("degenerate sets: |ax|=%d |op|=%d", len(ax), len(op))
			}
			for sig := range op {
				if _, ok := ax[sig]; !ok {
					t.Errorf("operational execution not axiomatically valid (soundness breach):\n%s", sig)
				}
			}
			for sig := range ax {
				if _, ok := op[sig]; !ok {
					t.Errorf("valid execution not operationally reachable (completeness breach):\n%s", sig)
				}
			}
		})
	}
}

// Theorem 4.8 exhaustively at litmus scale: every valid execution
// replays through the RA semantics to the same state.
func TestTheorem48ReplayAll(t *testing.T) {
	for _, mk := range []func() (lang.Prog, map[event.Var]event.Val){progMP, progSB, progRMW} {
		p, vars := mk()
		for sig, x := range ValidExecutions(p, vars, 40) {
			st, err := x.ReplayFull()
			if err != nil {
				t.Fatalf("replay of %s failed: %v", sig, err)
			}
			if got := FromState(st).CanonicalSignature(); got != sig {
				t.Fatalf("replay mismatch:\n got %s\nwant %s", got, sig)
			}
		}
	}
}

func TestReplayErrors(t *testing.T) {
	// Replaying an order that violates rf dependency fails cleanly.
	p := lang.Prog{
		lang.AssignC("z", lang.X("x")),
		lang.AssignC("x", lang.V(5)),
	}
	vars := map[event.Var]event.Val{"x": 0, "z": 0}
	for _, x := range ValidExecutions(p, vars, 16) {
		// Find an execution where the read reads 5 (so it depends on
		// thread 2's write), then replay read-first.
		var readTag, writeTag event.Tag
		var haveRead bool
		for _, e := range x.Events {
			if e.IsRead() && e.RdVal() == 5 {
				readTag = e.Tag
				haveRead = true
			}
			if e.IsWrite() && e.Var() == "x" && !e.IsInit() {
				writeTag = e.Tag
			}
		}
		if !haveRead {
			continue
		}
		var rest []event.Tag
		for _, e := range x.Events {
			if !e.IsInit() && e.Tag != readTag && e.Tag != writeTag {
				rest = append(rest, e.Tag)
			}
		}
		order := append([]event.Tag{readTag, writeTag}, rest...)
		if _, err := x.Replay(order); err == nil {
			t.Fatal("rf-violating replay order succeeded")
		}
		return
	}
	t.Fatal("no suitable execution found")
}

func TestRestrict(t *testing.T) {
	x := FromState(mpState(t))
	keep := []event.Tag{0, 1, 2, 3} // initials + thread 1's writes
	r := x.Restrict(keep)
	if r.N() != 4 {
		t.Fatalf("restricted size = %d", r.N())
	}
	if v := r.Check(); v != nil {
		t.Fatalf("restriction of valid prefix invalid: %v", v)
	}
	// Restriction dropped rf edges into removed reads.
	if r.RF.Count() != 0 {
		t.Fatal("rf to removed reads survived")
	}
}

func TestCanonicalSignatureInterleavingInvariance(t *testing.T) {
	// Two interleavings of 2W with the same final mo must share a
	// signature. Build both by hand through the operational semantics.
	p, vars := prog2W()
	op := operational(t, p, vars)
	ax := ValidExecutions(p, vars, 32)
	if len(op) != len(ax) {
		t.Fatalf("|op| = %d, |ax| = %d", len(op), len(ax))
	}
}

func BenchmarkOperationalEnumeration(b *testing.B) {
	p, vars := progMP()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if len(operational(b, p, vars)) == 0 {
			b.Fatal("no executions")
		}
	}
}

func BenchmarkAxiomaticEnumeration(b *testing.B) {
	p, vars := progMP()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if len(ValidExecutions(p, vars, 40)) == 0 {
			b.Fatal("no executions")
		}
	}
}
