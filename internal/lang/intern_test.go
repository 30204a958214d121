package lang

import (
	"math/rand/v2"
	"strings"
	"sync"
	"sync/atomic"
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
		n.Classes(threadKinds)
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
		{"class", "class", func(n *Node) { n.Classes(threadKinds)[0]++ }},
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
// successor slot, one plan memo and one classification memo: all must
// see one node, one plan and one class vector. Run under -race.
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
			kinds [goroutines][]uint8
		)
		start.Add(1)
		for g := 0; g < goroutines; g++ {
			done.Add(1)
			go func(g int) {
				defer done.Done()
				start.Wait()
				got[g] = n.Next(1, 1)
				plans[g] = n.Plan(false)
				kinds[g] = n.Classes(threadKinds)
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
			if &kinds[g][0] != &kinds[0][0] {
				t.Fatalf("round %d: goroutine %d got its own copy of the memoised classes", round, g)
			}
		}
	}
}

func TestNextHitAllocatesNothing(t *testing.T) {
	n := NewTable().Intern(Prog{AssignC("y", X("x")), AssignC("x", V(1))})
	n.Next(1, 2)
	n.Next(2, 0)
	n.Classes(threadKinds)
	var sink *Node
	allocs := testing.AllocsPerRun(100, func() {
		sink = n.Next(1, 2)
		sink = n.Next(2, 0)
		_ = sink.Prog()
		_ = sink.Classes(threadKinds)
	})
	if allocs != 0 {
		t.Fatalf("cache-hit Next, Prog and Classes allocate %.1f times per run", allocs)
	}
}

// threadKinds and threadSkips are test classifiers: each thread's
// command kind, counting evaluations in kindEvals, and whether it is
// skip.
var (
	kindEvals   atomic.Int64
	threadKinds = NewClassifier(func(c Com) uint8 {
		kindEvals.Add(1)
		switch c.(type) {
		case Skip:
			return 1
		case Assign:
			return 2
		}
		return 3
	})
	threadSkips = NewClassifier(func(c Com) uint8 {
		if _, ok := c.(Skip); ok {
			return 1
		}
		return 0
	})
)

// TestClassesOncePerNode checks that a classifier runs once per thread
// of each node, that each node keeps its own classes, and that two
// classifiers share a node without mixing, even while a table is
// still allocating (the classes are carved from the table's slabs,
// which signatures also use).
func TestClassesOncePerNode(t *testing.T) {
	tab := NewTable()
	a := tab.Intern(Prog{AssignC("x", V(1)), SkipC()})
	before := kindEvals.Load()
	ka := a.Classes(threadKinds)
	b := a.Next(1, 0)
	for i := 0; i < 3; i++ {
		if got := a.Classes(threadKinds); got[0] != 2 || got[1] != 1 || &got[0] != &ka[0] {
			t.Fatalf("node a: %v", got)
		}
		if got := b.Classes(threadKinds); got[0] != 1 || got[1] != 1 {
			t.Fatalf("node b: %v", got)
		}
		if got := a.Classes(threadSkips); got[0] != 0 || got[1] != 1 {
			t.Fatalf("second classifier on node a: %v", got)
		}
	}
	if n := kindEvals.Load() - before; n != 4 {
		t.Fatalf("classifier ran %d times on two nodes of two threads", n)
	}
	if a.Sig() != string(AppendProgSig(nil, a.Prog())) || b.Sig() != string(AppendProgSig(nil, b.Prog())) {
		t.Fatal("classes overwrote a signature")
	}
}

// pathProg has a spin loop, a CAS, a read-driven counter loop and a
// thread that terminates early, so random walks over it take every
// step kind and revisit programs along different paths.
func pathProg() Prog {
	return Prog{
		SeqC(AssignC("x", V(1)), WhileC(Eq(XA("y"), V(0)), SkipC()), AssignC("r", X("x"))),
		SeqC(AssignRelC("y", V(1)), CasStmtC("x", V(1), V(2))),
		WhileC(Ne(X("z"), V(3)), AssignC("z", Add(X("z"), V(1)))),
		SkipC(),
	}
}

// randomWalk takes up to steps random enabled steps from n, reading
// values in 0..3, and returns the node it stops at.
func randomWalk(n *Node, rng *rand.Rand, steps int) *Node {
	for i := 0; i < steps && !n.Terminated(); i++ {
		ps := n.Steps()[rng.IntN(len(n.Steps()))]
		n = n.Next(ps.T, event.Val(rng.IntN(4)))
	}
	return n
}

// checkPath walks n's path from the root of a fresh table and checks it
// reaches n's program and consumes exactly the path.
func checkPath(t *testing.T, root Prog, n *Node) {
	t.Helper()
	path := n.AppendPath([]byte{0xee})[1:]
	got, rest, err := NewTable().Intern(root).Walk(append(path, 0xaa))
	if err != nil {
		t.Errorf("walking the path of %s: %v", n.Prog(), err)
		return
	}
	if got.Sig() != n.Sig() || len(rest) != 1 || rest[0] != 0xaa {
		t.Errorf("path of %s reaches %s with %d bytes left", n.Prog(), got.Prog(), len(rest))
	}
}

func TestPathWalkReachesNode(t *testing.T) {
	root := pathProg()
	n := NewTable().Intern(root)
	if got := n.AppendPath(nil); len(got) != 1 || got[0] != 0 {
		t.Fatalf("root path %x, want the empty path", got)
	}
	checkPath(t, root, n)
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 200; i++ {
		checkPath(t, root, randomWalk(n, rng, 30))
	}
	for _, tc := range nextCases() {
		p := Prog{tc.c, AssignC("w", V(1))}
		for _, v := range tc.vals {
			checkPath(t, p, NewTable().Intern(p).Next(1, v).Next(2, 0))
		}
	}
	// A node keeps the path that first interned it: thread 2 then 1
	// reaches the program thread 1 then 2 did.
	p := Prog{AssignC("x", V(1)), AssignC("y", V(1))}
	a := NewTable().Intern(p)
	first := a.Next(1, 0).Next(2, 0)
	if second := a.Next(2, 0).Next(1, 0); second != first {
		t.Fatal("two interleavings of independent writes reach distinct nodes")
	}
	if got, want := first.AppendPath(nil), []byte{2, 1, 0, 2, 0}; string(got) != string(want) {
		t.Fatalf("path %x, want %x", got, want)
	}
}

// TestWalkRejectsCorruption feeds Walk every kind of bad path: each
// must come back as an error naming it, never a panic.
func TestWalkRejectsCorruption(t *testing.T) {
	root := Prog{AssignC("x", V(1)), SkipC()}
	for _, tc := range []struct {
		name, want string
		data       []byte
	}{
		{"empty", "truncated path length", nil},
		{"count exceeds bytes", "2 steps in 2 bytes", []byte{2, 1, 0}},
		{"thread 0", "thread 0 has no enabled step", []byte{1, 0, 0}},
		{"thread past program", "thread 3 has no enabled step", []byte{1, 3, 0}},
		{"huge thread", "has no enabled step", []byte{1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 1, 0}},
		{"terminated thread", "thread 2 has no enabled step", []byte{1, 2, 0}},
		{"terminated after a step", "step 1: thread 1 has no enabled step", []byte{2, 1, 0, 1, 0}},
		{"truncated thread", "truncated path step 0", []byte{1, 0x80, 0x80}},
		{"truncated value", "truncated path step 0", []byte{1, 1, 0x80}},
	} {
		_, _, err := NewTable().Intern(root).Walk(tc.data)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
	// Every strict prefix of a real path is truncated.
	n := NewTable().Intern(pathProg())
	path := randomWalk(n, rand.New(rand.NewPCG(3, 4)), 20).AppendPath(nil)
	for k := 0; k < len(path); k++ {
		if _, _, err := NewTable().Intern(pathProg()).Walk(path[:k]); err == nil {
			t.Fatalf("path truncated to %d of %d bytes walked without error", k, len(path))
		}
	}
}

// TestNextPathParallel runs AppendPath while other goroutines fill
// successors of the same table: every path must still walk, in a
// fresh table, to the node it was read from. Run under -race.
func TestNextPathParallel(t *testing.T) {
	const goroutines = 8
	root := pathProg()
	for round := 0; round < 5; round++ {
		n := NewTable().Intern(root)
		var done sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			done.Add(1)
			go func(g int) {
				defer done.Done()
				rng := rand.New(rand.NewPCG(uint64(round), uint64(g)))
				for i := 0; i < 50; i++ {
					checkPath(t, root, randomWalk(n, rng, 25))
				}
			}(g)
		}
		done.Wait()
	}
}
