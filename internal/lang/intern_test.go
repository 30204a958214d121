package lang

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/event"
)

func TestInternEqualProgramsShareNode(t *testing.T) {
	build := func() Prog {
		return Prog{
			SeqC(AssignC("x", V(1)), AssignRelC("f", V(1))),
			WhileC(Eq(XA("f"), V(0)), SkipC()),
		}
	}
	tab := NewTable()
	a, b := tab.Intern(build()), tab.Intern(build())
	if a != b {
		t.Fatal("equal programs interned to distinct nodes")
	}
	c := tab.Intern(Prog{AssignC("x", V(2)), SkipC()})
	if c == a {
		t.Fatal("distinct programs share a node")
	}
	if a.Sig() != string(AppendProgSig(nil, build())) {
		t.Fatal("node signature is not the program's AppendProgSig")
	}
	// Intern copies: reusing the caller's slice does not reach the node.
	p := build()
	n := tab.Intern(p)
	p[0] = SkipC()
	if n.Prog()[0].String() == "skip" {
		t.Fatal("Intern aliases the caller's program")
	}
}

// nextCase is one program whose thread 1 takes a step of a given
// kind, with the values worth reading at it.
type nextCase struct {
	name string
	kind StepKind
	c    Com
	vals []event.Val
}

func nextCases() []nextCase {
	cas := func(th, el Com) Com { return CasC("x", V(1), V(2), th, el) }
	return []nextCase{
		{"silent seq", StepSilent, SeqC(SkipC(), AssignC("x", V(1))), []event.Val{0}},
		{"write", StepWrite, SeqC(AssignRelC("x", V(3)), AssignC("y", V(1))), []event.Val{0, 7}},
		{"update", StepUpdate, SeqC(SwapC("x", 4), AssignC("y", V(1))), []event.Val{0, 1, 9}},
		{"read", StepRead, AssignC("y", Add(X("x"), X("z"))), []event.Val{0, 1, 2}},
		{"cas", StepCas, cas(AssignC("ok", V(1)), AssignC("ok", V(0))), []event.Val{1, 0, 5}},
		{"indexed store", StepRead, AssignAtC("a", X("i"), V(1)), []event.Val{0, 1}},
		{"indexed load", StepRead, AssignC("r", XAt("a", X("i"))), []event.Val{0, 1}},
		{"indexed cas", StepRead, CasAtC("a", X("i"), V(0), V(1), SkipC(), SkipC()), []event.Val{0, 1}},
		{"label", StepSilent, LabelC("cs", AssignC("x", V(1))), []event.Val{0}},
		{"while unfolding", StepSilent, WhileC(V(1), AssignC("x", V(1))), []event.Val{0}},
		{"while guard", StepRead, WhileC(Eq(XA("f"), V(0)), SkipC()), []event.Val{0, 1}},
	}
}

func TestNextMatchesIntern(t *testing.T) {
	for _, tc := range nextCases() {
		t.Run(tc.name, func(t *testing.T) {
			p := Prog{tc.c, AssignC("w", V(1))}
			tab := NewTable()
			n := tab.Intern(p)
			s, ok := StepOf(tc.c)
			if !ok || s.Kind != tc.kind {
				t.Fatalf("step of %s: kind %v, want %v", tc.c, s.Kind, tc.kind)
			}
			for _, v := range tc.vals {
				want := tab.Intern(p.WithThread(1, s.Apply(v)))
				if got := n.Next(1, v); got != want {
					t.Fatalf("Next(1, %d) = %s, want %s", v, got.Prog(), want.Prog())
				}
				if got := n.Next(1, v); got != want {
					t.Fatalf("cached Next(1, %d) = %s, want %s", v, got.Prog(), want.Prog())
				}
			}
			// The other thread's write leads to the same node from a
			// fresh table as from this one.
			w := n.Next(2, 0)
			if fresh := NewTable().Intern(p.WithThread(2, SkipC())); fresh.Sig() != w.Sig() {
				t.Fatalf("thread 2 successor %s, want %s", w.Prog(), fresh.Prog())
			}
			if bad := n.Audit(); len(bad) != 0 {
				t.Fatalf("audit: %v", bad)
			}
		})
	}
}

func TestNextTerminatedThreadPanics(t *testing.T) {
	n := NewTable().Intern(Prog{SkipC()})
	defer func() {
		if recover() == nil {
			t.Fatal("Next of a terminated thread did not panic")
		}
	}()
	n.Next(1, 0)
}

func TestInternPlanMatchesPlanPOR(t *testing.T) {
	p := Prog{
		SeqC(SkipC(), AssignC("x", V(1))),
		LabelC("cs", AssignC("y", X("x"))),
		WhileC(Eq(X("z"), V(0)), SkipC()),
	}
	n := NewTable().Intern(p)
	for _, acyclic := range []bool{false, true} {
		want := PlanPOR(p, ProgSteps(p), acyclic)
		for i := 0; i < 2; i++ {
			if got := n.Plan(acyclic); got != want {
				t.Fatalf("acyclic=%v call %d: plan %+v, want %+v", acyclic, i, got, want)
			}
		}
	}
}

// TestInternAuditReportsCorruption corrupts one memoised field at a
// time and checks Audit names it; an intact node audits clean.
func TestInternAuditReportsCorruption(t *testing.T) {
	build := func() *Node {
		n := NewTable().Intern(Prog{AssignC("y", X("x")), AssignC("x", V(1))})
		n.Next(1, 3)
		n.Plan(true)
		return n
	}
	if bad := build().Audit(); len(bad) != 0 {
		t.Fatalf("intact node: %v", bad)
	}
	for _, tc := range []struct {
		name, want string
		corrupt    func(n *Node)
	}{
		{"signature", "signature", func(n *Node) { n.sig = string(AppendProgSig(nil, Prog{SkipC(), SkipC()})) }},
		{"steps", "steps", func(n *Node) { n.steps[1].S.WVal++ }},
		{"plan", "plan", func(n *Node) { n.plans[1].Load().Persist ^= 3 }},
		{"successor", "successor", func(n *Node) { n.slots[0].edges.Load().to = n }},
	} {
		n := build()
		tc.corrupt(n)
		bad := n.Audit()
		if len(bad) == 0 || !strings.Contains(strings.Join(bad, "\n"), tc.want) {
			t.Errorf("%s corrupted: audit reported %q", tc.name, bad)
		}
	}
}

// TestNextRaceOneNode races 16 goroutines through one missing
// successor slot, and through one plan memo: all must see one node and
// one plan. Run under -race.
func TestNextRaceOneNode(t *testing.T) {
	const goroutines = 16
	for round := 0; round < 20; round++ {
		n := NewTable().Intern(Prog{
			SeqC(AssignC("r", X("x")), AssignC("y", V(1))),
			AssignC("x", V(1)),
		})
		var (
			start sync.WaitGroup
			done  sync.WaitGroup
			got   [goroutines]*Node
			plans [goroutines]Plan
		)
		start.Add(1)
		for g := 0; g < goroutines; g++ {
			done.Add(1)
			go func(g int) {
				defer done.Done()
				start.Wait()
				got[g] = n.Next(1, 1)
				plans[g] = n.Plan(false)
			}(g)
		}
		start.Done()
		done.Wait()
		for g := 1; g < goroutines; g++ {
			if got[g] != got[0] {
				t.Fatalf("round %d: goroutine %d got %s, goroutine 0 got %s", round, g, got[g].Prog(), got[0].Prog())
			}
			if plans[g] != plans[0] {
				t.Fatalf("round %d: goroutine %d planned %+v, goroutine 0 %+v", round, g, plans[g], plans[0])
			}
		}
	}
}

func TestNextHitAllocatesNothing(t *testing.T) {
	n := NewTable().Intern(Prog{AssignC("y", X("x")), AssignC("x", V(1))})
	n.Next(1, 2)
	n.Next(2, 0)
	var sink *Node
	allocs := testing.AllocsPerRun(100, func() {
		sink = n.Next(1, 2)
		sink = n.Next(2, 0)
		_ = sink.Prog()
	})
	if allocs != 0 {
		t.Fatalf("cache-hit Next and Prog allocate %.1f times per run", allocs)
	}
}
