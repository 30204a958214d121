package lang

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/event"
	"repro/internal/fingerprint"
)

// This file interns residual programs. A thread's residual command is
// its program counter (pc_t in the paper's proofs), and a search
// visits few of them: a Peterson search admitting a hundred thousand
// configurations carries about a hundred distinct programs. Everything
// that is a function of the program alone — its signature, its
// enabled steps, its partial-order-reduction plan and the program each
// step leads to — is therefore computed once per distinct program, on
// a Node, instead of once per configuration.
//
// Aliasing. A Node and everything it returns (Prog, Steps) is shared
// by every configuration carrying it and must never be mutated. Two
// nodes of one Table are equal exactly when they are the same pointer;
// nodes of different tables (Model.Restore interns each restored
// configuration into a fresh table) may describe the same program, so
// identity across configurations is the signature — and, with the
// memory state, the fingerprint — never the node pointer.
//
// Concurrency. A Table is shared by every worker of a search. Reads of
// a published node (its fields, a filled successor edge, a computed
// plan) take no lock and allocate nothing. Filling a successor edge or
// a plan serialises on the table's mutex, re-checks under it, and
// publishes through an atomic store, so racing fillers agree on one
// node per program.

// Table interns the residual programs reachable from one root program,
// one Node per distinct program, keyed by the program's signature (the
// prefix-free AppendProgSig encoding the configuration fingerprint
// hashes). The zero value is not ready; use NewTable.
type Table struct {
	mu    sync.Mutex
	nodes map[string]*Node

	// sig, off and steps are the scratch of a miss; all fields below
	// are guarded by mu.
	sig   []byte
	off   []int32
	steps []ProgStep

	// Slabs the nodes are carved from. Each grows geometrically, so a
	// tiny search pays for a handful of small chunks and a large one
	// for logarithmically many.
	nodeSlab  []Node
	comSlab   []Com
	stepSlab  []ProgStep
	slotSlab  []slot
	offSlab   []int32
	byteSlab  []byte
	edgeSlab  []edge
	planSlab  []Plan
	classSlab []classMemo
}

// NewTable returns an empty intern table.
func NewTable() *Table { return &Table{nodes: make(map[string]*Node)} }

// Node is one interned residual program and its memoised analyses.
type Node struct {
	tab  *Table
	prog Prog
	// sig is the program's signature; off[i] is the offset of thread
	// i+1's command in it, and off[len(prog)] == len(sig).
	sig   string
	off   []int32
	steps []ProgStep
	// slots holds one successor slot per thread.
	slots []slot
	// plans memoises PlanPOR for acyclic = false, true.
	plans [2]atomic.Pointer[Plan]
	// classes holds the classifications Classes has computed, newest
	// first.
	classes atomic.Pointer[classMemo]
	term    bool
}

// A Classifier sorts each thread's residual command into one of at
// most 256 classes (the verification layer's program counters, say);
// Node.Classes computes the classes once per node. Nodes key their
// memo by the Classifier pointer, so declare each one once, as a
// package-level variable.
type Classifier struct{ of func(Com) uint8 }

// NewClassifier returns the classifier that of computes.
func NewClassifier(of func(Com) uint8) *Classifier { return &Classifier{of: of} }

// classMemo is one immutable entry of a node's classification list.
type classMemo struct {
	cl   *Classifier
	v    []uint8 // v[i] is thread i+1's class
	next *classMemo
}

// Classes returns the class of each thread's command, thread t's at
// index t-1, computed on the first call per node; later calls are a
// lock-free lookup. The slice is shared and must not be modified.
func (n *Node) Classes(cl *Classifier) []uint8 {
	for m := n.classes.Load(); m != nil; m = m.next {
		if m.cl == cl {
			return m.v
		}
	}
	tab := n.tab
	tab.mu.Lock()
	v := carve(&tab.byteSlab, len(n.prog))
	tab.mu.Unlock()
	// v is this call's own until published, so the classifier runs
	// outside the lock.
	for i, c := range n.prog {
		v[i] = cl.of(c)
	}
	tab.mu.Lock()
	defer tab.mu.Unlock()
	for m := n.classes.Load(); m != nil; m = m.next {
		if m.cl == cl {
			return m.v
		}
	}
	m := &carve(&tab.classSlab, 1)[0]
	*m = classMemo{cl: cl, v: v, next: n.classes.Load()}
	n.classes.Store(m)
	return v
}

// slot is one thread's successor memo: its enabled step (nil once the
// thread has terminated) and a published list of the programs that
// step leads to, keyed by edgeKey.
type slot struct {
	step  *Step
	edges atomic.Pointer[edge]
}

// edge is one immutable entry of a slot's successor list.
type edge struct {
	key  event.Val
	to   *Node
	next *edge
}

// edgeKey maps the value a step reads to its successor slot: silent,
// write and update steps have one successor whatever is read
// (Proposition 2.2 for updates), a CAS has one per face, and a read one
// per value.
func edgeKey(s *Step, v event.Val) event.Val {
	switch s.Kind {
	case StepRead:
		return v
	case StepCas:
		if v == s.Exp {
			return 0
		}
		return 1
	}
	return 0
}

// carve returns n fresh zero elements of the slab, starting a chunk
// twice the size of the last — the first one holds four requests —
// when the current one is exhausted. The result's capacity is its
// length, so appending to it never reaches into a neighbour.
func carve[T any](slab *[]T, n int) []T {
	s := *slab
	if cap(s)-len(s) < n {
		s = make([]T, 0, max(2*cap(s), 4*n))
	}
	*slab = s[:len(s)+n]
	return s[len(s) : len(s)+n : len(s)+n]
}

// Intern returns the node of p, inserting it when the table has not
// seen the program. p is copied; the caller may reuse it.
func (tab *Table) Intern(p Prog) *Node {
	tab.mu.Lock()
	defer tab.mu.Unlock()
	buf := binary.AppendUvarint(tab.sig[:0], uint64(len(p)))
	off := tab.off[:0]
	for _, c := range p {
		off = append(off, int32(len(buf)))
		buf = AppendComSig(buf, c)
	}
	off = append(off, int32(len(buf)))
	tab.sig, tab.off = buf, off
	if nd := tab.nodes[string(buf)]; nd != nil {
		return nd
	}
	q := carve(&tab.comSlab, len(p))
	copy(q, p)
	tab.steps = AppendProgSteps(tab.steps[:0], q)
	return tab.insert(q, buf, off, tab.steps)
}

// insert adds the node of p, whose signature, thread offsets and
// enabled steps are sig, off and steps (scratch the node copies). The
// caller holds mu and has checked that the signature is new; p must be
// owned by the table.
func (tab *Table) insert(p Prog, sig []byte, off []int32, steps []ProgStep) *Node {
	b := carve(&tab.byteSlab, len(sig))
	copy(b, sig)
	nd := &carve(&tab.nodeSlab, 1)[0]
	nd.tab = tab
	nd.prog = p
	// The slab bytes are never written again, so the string may alias
	// them (the signature is never empty: it starts with the thread
	// count).
	nd.sig = unsafe.String(&b[0], len(b))
	nd.off = carve(&tab.offSlab, len(off))
	copy(nd.off, off)
	nd.steps = carve(&tab.stepSlab, len(steps))
	copy(nd.steps, steps)
	nd.slots = carve(&tab.slotSlab, len(p))
	for j := range nd.steps {
		nd.slots[nd.steps[j].T-1].step = &nd.steps[j].S
	}
	nd.term = p.Terminated()
	tab.nodes[nd.sig] = nd
	return nd
}

// Prog returns the program. It is shared and must not be modified.
func (n *Node) Prog() Prog { return n.prog }

// Sig returns the program's signature (AppendProgSig).
func (n *Node) Sig() string { return n.sig }

// Terminated reports whether every thread has terminated.
func (n *Node) Terminated() bool { return n.term }

// Steps returns the enabled steps in thread order (AppendProgSteps).
// The slice is shared and must not be modified.
func (n *Node) Steps() []ProgStep { return n.steps }

// Fingerprint is ConfigFingerprint of a configuration carrying this
// program: it hashes the cached signature instead of re-serialising
// the program.
func (n *Node) Fingerprint(state fingerprint.FP) fingerprint.FP {
	return configFingerprint(state, n.sig)
}

// Plan returns PlanPOR(n.Prog(), n.Steps(), acyclic), computed on the
// first call.
func (n *Node) Plan(acyclic bool) Plan {
	m := &n.plans[0]
	if acyclic {
		m = &n.plans[1]
	}
	if pl := m.Load(); pl != nil {
		return *pl
	}
	pl := PlanPOR(n.prog, n.steps, acyclic)
	n.tab.mu.Lock()
	if m.Load() == nil {
		p := &carve(&n.tab.planSlab, 1)[0]
		*p = pl
		m.Store(p)
	}
	n.tab.mu.Unlock()
	return pl
}

// Next returns the node of the program thread t's enabled step leaves
// behind when it reads v: P[t ↦ s.Apply(v)] in the PROG rule. The
// value is ignored by silent, write and update steps; a CAS compares
// it with its expected value. t must not have terminated. The first
// call per successor signs and interns the program; later calls are a
// lock-free lookup.
func (n *Node) Next(t event.Thread, v event.Val) *Node {
	sl := &n.slots[t-1]
	if sl.step == nil {
		panic(fmt.Sprintf("lang: Next of terminated thread %d", t))
	}
	k := edgeKey(sl.step, v)
	for e := sl.edges.Load(); e != nil; e = e.next {
		if e.key == k {
			return e.to
		}
	}
	return n.fill(t, sl, k, v)
}

// fill is Next's miss path: it builds thread t's residual, signs the
// successor program into the table's scratch by splicing the residual's
// signature between the unchanged threads', and interns it. The
// program itself is only built when the signature is new.
func (n *Node) fill(t event.Thread, sl *slot, k, v event.Val) *Node {
	c := sl.step.Apply(v)
	tab := n.tab
	tab.mu.Lock()
	defer tab.mu.Unlock()
	for e := sl.edges.Load(); e != nil; e = e.next {
		if e.key == k {
			return e.to
		}
	}
	i := int(t) - 1
	buf := append(tab.sig[:0], n.sig[:n.off[i]]...)
	buf = AppendComSig(buf, c)
	delta := int32(len(buf)) - n.off[i+1]
	buf = append(buf, n.sig[n.off[i+1]:]...)
	tab.sig = buf
	to := tab.nodes[string(buf)]
	if to == nil {
		off := append(tab.off[:0], n.off...)
		for j := i + 1; j < len(off); j++ {
			off[j] += delta
		}
		tab.off = off
		p := carve(&tab.comSlab, len(n.prog))
		copy(p, n.prog)
		p[i] = c
		// The other threads' commands are unchanged, and so are their
		// steps: only thread t's is derived.
		steps, j := tab.steps[:0], 0
		for ; j < len(n.steps) && n.steps[j].T < t; j++ {
			steps = append(steps, n.steps[j])
		}
		if s, ok := StepOf(c); ok {
			steps = append(steps, ProgStep{T: t, S: s})
		}
		for ; j < len(n.steps); j++ {
			if n.steps[j].T != t {
				steps = append(steps, n.steps[j])
			}
		}
		tab.steps = steps
		to = tab.insert(p, buf, off, steps)
	}
	e := &carve(&tab.edgeSlab, 1)[0]
	*e = edge{key: k, to: to, next: sl.edges.Load()}
	sl.edges.Store(e)
	return to
}

// Audit recomputes everything the node memoises from its program alone
// and describes each disagreement (nil when all agree): the signature,
// termination, the enabled steps, the plan under both values of
// acyclic, every classification Classes has computed, and the program
// behind every successor edge filled so far.
// It drives the backends' AuditIncremental.
func (n *Node) Audit() []string {
	var bad []string
	p := n.prog
	if sig := AppendProgSig(nil, p); string(sig) != n.sig {
		bad = append(bad, fmt.Sprintf("program %s: cached signature differs from its serialisation", p))
	}
	if n.term != p.Terminated() {
		bad = append(bad, fmt.Sprintf("program %s: cached termination %v", p, n.term))
	}
	fresh := ProgSteps(p)
	if !sameSteps(fresh, n.steps) {
		bad = append(bad, fmt.Sprintf("program %s: cached enabled steps differ", p))
	}
	for _, acyclic := range []bool{false, true} {
		if got, want := n.Plan(acyclic), PlanPOR(p, fresh, acyclic); got != want {
			bad = append(bad, fmt.Sprintf("program %s: cached plan (acyclic=%v) %+v, fresh %+v", p, acyclic, got, want))
		}
	}
	for m := n.classes.Load(); m != nil; m = m.next {
		for i, c := range p {
			if got, want := m.v[i], m.cl.of(c); got != want {
				bad = append(bad, fmt.Sprintf("program %s: cached class %d of thread %d, fresh %d", p, got, i+1, want))
			}
		}
	}
	for _, ps := range fresh {
		s := ps.S
		for e := n.slots[ps.T-1].edges.Load(); e != nil; e = e.next {
			v := e.key
			if s.Kind == StepCas {
				v = s.Exp + event.Val(e.key) // key 0: success; key 1: a failing value
			}
			want := AppendProgSig(nil, p.WithThread(ps.T, s.Apply(v)))
			if string(want) != e.to.sig {
				bad = append(bad, fmt.Sprintf("program %s: successor of thread %d reading %d is %s",
					p, ps.T, v, e.to.prog))
			}
		}
	}
	return bad
}

// sameSteps reports whether two step lists agree on everything but
// the successor functions: thread, kind, location, annotations and
// values.
func sameSteps(a, b []ProgStep) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.T != y.T || x.S.Kind != y.S.Kind || x.S.Loc != y.S.Loc ||
			x.S.Acq != y.S.Acq || x.S.Rel != y.S.Rel || x.S.NA != y.S.NA ||
			x.S.WVal != y.S.WVal || x.S.Exp != y.S.Exp {
			return false
		}
	}
	return true
}
