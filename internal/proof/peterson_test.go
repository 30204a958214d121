package proof

import (
	"testing"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/explore"
	"repro/internal/lang"
	"repro/internal/litmus"
	"repro/internal/model"
)

func TestPCClassifier(t *testing.T) {
	p, _ := litmus.Peterson()
	c := p.Thread(1)
	if PC(c) != 2 {
		t.Fatalf("initial pc = %d, want 2", PC(c))
	}
	if PC(lang.SkipC()) != 7 {
		t.Fatal("skip must classify as terminated")
	}
	if PC(lang.SeqC(lang.SkipC(), lang.SwapC("turn", 2))) != 3 {
		t.Fatal("skip;swap must classify as 3")
	}
	if PC(lang.LabelC("cs", lang.SkipC())) != 5 {
		t.Fatal("cs label must classify as 5")
	}
	if PC(lang.AssignRelC("flag1", lang.B(false))) != 6 {
		t.Fatal("release reset must classify as 6")
	}
	w := lang.WhileC(lang.Eq(lang.X("turn"), lang.V(2)), lang.SkipC())
	if PC(w) != 4 {
		t.Fatal("while must classify as 4")
	}
}

// Lemma D.1 at bounded depth: all seven invariants (4)–(10) hold in
// every reachable configuration of the RA Peterson lock. This is the
// machine-checked counterpart of the paper's hand proof.
func TestPetersonInvariantsInductive(t *testing.T) {
	p, vars := litmus.Peterson()
	res := explore.Run(core.NewConfig(p, vars), explore.Options{
		MaxEvents: 12,
		Property: func(c model.Config) bool {
			return len(CheckPetersonInvariants(c.(core.Config))) == 0
		},
	})
	if res.Violation != nil {
		v := res.Violation.(core.Config)
		bad := CheckPetersonInvariants(v)
		t.Fatalf("invariants %v violated in reachable state:\npc1=%d pc2=%d\n%s",
			bad, PC(v.Program().Thread(1)), PC(v.Program().Thread(2)), v.S)
	}
	if res.Explored < 500 {
		t.Fatalf("exploration too small to be meaningful: %d", res.Explored)
	}
	t.Logf("invariants checked on %d configurations (depth %d)", res.Explored, res.Depth)
}

// Theorem 5.8 both directly and via the paper's derivation from
// invariant (9) and Lemma 5.4.
func TestTheorem58(t *testing.T) {
	p, vars := litmus.Peterson()
	res := explore.Run(core.NewConfig(p, vars), explore.Options{
		MaxEvents: 12,
		Property: func(c model.Config) bool {
			cc := c.(core.Config)
			return Theorem58(cc) && DeriveTheorem58(cc)
		},
	})
	if res.Violation != nil {
		t.Fatalf("mutual exclusion or its derivation failed:\n%s", res.Violation.Program())
	}
}

// The invariants are not vacuous: the weakened Peterson variant
// violates at least one of them in some reachable state (it must —
// otherwise the paper's proof would apply and mutual exclusion would
// hold, contradicting the violation found by the explorer).
func TestWeakPetersonBreaksInvariants(t *testing.T) {
	p, vars := litmus.PetersonWeakTurn()
	trace, found := explore.FindTrace(core.NewConfig(p, vars), explore.Options{
		MaxEvents: 12,
	}, func(c model.Config) bool {
		return len(CheckPetersonInvariants(c.(core.Config))) > 0
	})
	if !found {
		t.Fatal("weak Peterson satisfies all invariants — proof would go through")
	}
	last := trace.Configs[len(trace.Configs)-1].(core.Config)
	t.Logf("weak Peterson violates invariants %v after %d steps",
		CheckPetersonInvariants(last), len(trace.Configs)-1)
}

// Invariant coverage: each pc-guarded invariant actually fires during
// exploration (its guard is reachable), so the inductive check is not
// vacuous.
func TestPetersonInvariantGuardsReachable(t *testing.T) {
	p, vars := litmus.Peterson()
	reached := map[int]bool{}
	explore.Run(core.NewConfig(p, vars), explore.Options{
		MaxEvents: 12,
		// Serial: the property writes reached without a lock.
		Workers: 1,
		Property: func(c model.Config) bool {
			for _, th := range []event.Thread{1, 2} {
				reached[PC(c.Program().Thread(th))] = true
			}
			return true
		},
	})
	for pc := 2; pc <= 7; pc++ {
		if !reached[pc] {
			t.Errorf("pc %d never reached", pc)
		}
	}
}

// Example 5.7: the message-passing proof. Whenever thread 2 has
// exited its await loop (reached the consume statement), d =_2 5
// holds — established by ModLast + WOrd in thread 1 and copied by
// Transfer at the acquiring guard read.
func TestExample57MessagePassing(t *testing.T) {
	p := lang.Prog{
		lang.SeqC(
			lang.AssignC("d", lang.V(5)),
			lang.AssignRelC("f", lang.V(1)),
		),
		lang.SeqC(
			lang.WhileC(lang.Eq(lang.XA("f"), lang.V(0)), lang.SkipC()),
			lang.LabelC("consume", lang.AssignC("r", lang.X("d"))),
		),
	}
	vars := map[event.Var]event.Val{"d": 0, "f": 0, "r": 0}
	res := explore.Run(core.NewConfig(p, vars), explore.Options{
		MaxEvents: 12,
		Property: func(c model.Config) bool {
			cc := c.(core.Config)
			if lang.AtLabel(cc.Program().Thread(2)) == "consume" {
				return DV(cc.S, 2, "d", 5)
			}
			return true
		},
	})
	if res.Violation != nil {
		t.Fatalf("d =_2 5 fails past the loop:\n%s", res.Violation.(core.Config).S)
	}
	// And the intermediate assertions of the proof sketch hold after
	// thread 1 finishes: d =_1 5 and d ↪ f.
	res2 := explore.Run(core.NewConfig(p, vars), explore.Options{
		MaxEvents: 12,
		Property: func(c model.Config) bool {
			cc := c.(core.Config)
			if lang.Terminated(cc.Program().Thread(1)) {
				return DV(cc.S, 1, "d", 5) && VO(cc.S, "d", "f")
			}
			return true
		},
	})
	if res2.Violation != nil {
		t.Fatal("thread 1 post-assertions fail")
	}
}

// The relaxed variant of message passing genuinely loses the property:
// some reachable post-loop state lacks d =_2 5.
func TestExample57RelaxedLosesProperty(t *testing.T) {
	p := lang.Prog{
		lang.SeqC(
			lang.AssignC("d", lang.V(5)),
			lang.AssignC("f", lang.V(1)), // relaxed flag write
		),
		lang.SeqC(
			lang.WhileC(lang.Eq(lang.X("f"), lang.V(0)), lang.SkipC()),
			lang.LabelC("consume", lang.AssignC("r", lang.X("d"))),
		),
	}
	vars := map[event.Var]event.Val{"d": 0, "f": 0, "r": 0}
	_, found := explore.FindTrace(core.NewConfig(p, vars), explore.Options{
		MaxEvents: 12,
	}, func(c model.Config) bool {
		cc := c.(core.Config)
		return lang.AtLabel(cc.Program().Thread(2)) == "consume" && !DV(cc.S, 2, "d", 5)
	})
	if !found {
		t.Fatal("relaxed MP unexpectedly preserves the determinate value")
	}
}

// The invariant list: (4) and (5) are single unguarded obligations,
// each of (6)–(10) one guarded obligation per thread, grouped by ID in
// order and named once per invariant.
func TestPetersonInvariantTableShape(t *testing.T) {
	anns := PetersonInvariants()
	if len(anns) != 12 {
		t.Fatalf("obligation count = %d", len(anns))
	}
	for i, a := range anns {
		want := 4 + i
		if i >= 2 {
			want = 6 + (i-2)/2
		}
		if a.ID != want {
			t.Fatalf("obligation %d has ID %d, want %d", i, a.ID, want)
		}
		if a.Name == "" || a.Then == nil || (a.When == nil) != (a.ID < 6) {
			t.Fatalf("obligation %d of invariant %d incomplete", i, a.ID)
		}
		if i > 0 && anns[i-1].ID == a.ID && anns[i-1].Name != a.Name {
			t.Fatalf("invariant %d has names %q and %q", a.ID, anns[i-1].Name, a.Name)
		}
	}
	// All hold initially.
	p, vars := litmus.Peterson()
	c := core.NewConfig(p, vars)
	if bad := CheckPetersonInvariants(c); len(bad) != 0 {
		t.Fatalf("initial state violates %v", bad)
	}
	if !DeriveTheorem58(c) {
		t.Fatal("derivation fails on initial state")
	}
}

// DeriveTheorem58 runs on every configuration of a c11 verify search;
// it reads the memoised invariant table, so once a state's derived
// orders are memoised a call allocates nothing.
func TestDeriveTheorem58AllocatesNothing(t *testing.T) {
	p, vars := litmus.Peterson()
	var configs []core.Config
	explore.Run(core.NewConfig(p, vars), explore.Options{
		MaxEvents: 10,
		Workers:   1,
		TypedProperty: func(c core.Config) bool {
			configs = append(configs, c)
			return true
		},
	})
	for i := 0; i < len(configs); i += 25 {
		c := configs[i]
		DeriveTheorem58(c) // memoise hb
		if n := testing.AllocsPerRun(20, func() { DeriveTheorem58(c) }); n != 0 {
			t.Fatalf("DeriveTheorem58 allocates %.1f objects per call", n)
		}
	}
}

func BenchmarkPetersonInvariantCheck(b *testing.B) {
	p, vars := litmus.Peterson()
	c := core.NewConfig(p, vars)
	// Advance a few steps to a non-trivial state.
	for i := 0; i < 6; i++ {
		succ := c.Successors()
		c = succ[0]
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if len(CheckPetersonInvariants(c)) != 0 {
			b.Fatal("invariant violated")
		}
	}
}
