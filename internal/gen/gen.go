// Package gen synthesises random well-formed litmus programs and
// differentially fuzzes the memory-model backends with them. It closes
// the loop the hand-written catalog of internal/litmus leaves open:
// instead of ~20 curated scenarios, a seeded, deterministic generator
// (Generate) produces an unbounded stream of terminating .lit programs
// — configurable thread/variable counts, RMW/branch/loop densities,
// annotation mix — each of which is run through a battery of oracles
// (Check) layered on the existing machinery: SC ⊆ RA outcome
// refinement and, per backend, the engine's self-audit
// (explore.Audit: the incremental-closure and fingerprint-collision
// audits, the partial-order-reduction audit and serial-vs-parallel
// engine equivalence). Any discrepancy is minimised by a
// greedy delta-debugging shrinker (Shrink) that preserves the failure
// while the program still shrinks, and written to a reproducible
// corpus (WriteRepro) keyed by its seed. c11 fuzz (cmd/c11) is the
// front end.
//
// Programs are emitted through the parser's grammar printer, so every
// artifact round-trips parse → print → reparse (Check enforces this as
// its first oracle), and every generated loop is bounded by a
// thread-private counter — only the generating thread ever touches it,
// so under any memory model the guard reads the thread's own latest
// write (coherence) and the loop terminates after its configured
// iteration count. Generation tracks a worst-case memory-event budget
// per thread, so exploration bounds derived from Program.Bound are
// never hit and verdicts are exhaustive, not bound-relative.
package gen

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/event"
	"repro/internal/lang"
	"repro/internal/parser"
)

// Params configures the generator. The zero value of any field selects
// the default noted on it; probabilities are percentages clamped to
// [0,100]. The same Params and seed always produce the same program.
type Params struct {
	// Threads is the maximum thread count; each program draws its
	// count uniformly from 2..Threads (default 3).
	Threads int
	// Vars is the number of shared variables x0..x{Vars-1} (default 2).
	Vars int
	// Stmts is the maximum top-level statement count per thread; each
	// thread draws from 2..Stmts (default 4).
	Stmts int
	// Values bounds written values, drawn from 1..Values (default 2).
	// Small domains maximise read-write collisions, which is where the
	// weak behaviours live.
	Values int
	// Budget is the per-thread worst-case memory-event budget; nested
	// constructs are charged their worst-case path so the whole
	// program's event count is statically bounded (default 6).
	Budget int
	// Depth bounds if/while nesting (default 2).
	Depth int
	// LoopIters is the iteration count of generated bounded loops,
	// drawn from 1..LoopIters (default 2).
	LoopIters int
	// ArrLen is the cell count of the shared array a[0..ArrLen-1]
	// (default 2). Every cell starts at zero and is observed; the
	// shared index variable ix only ever receives literals below
	// ArrLen, so symbolic loads a[ix] always hit an initialised cell.
	ArrLen int

	// Densities, in percent.
	PSwap  int // RMW swap statements (default 15)
	PIf    int // branches (default 20)
	PWhile int // bounded loops (default 10)
	PRel   int // release annotation on writes (default 30)
	PAcq   int // acquire annotation on loads (default 30)
	PNA    int // non-atomic accesses (default 10)
	PNeg   int // negative write values (default 5)
	PExpr  int // compound write expressions like x := y + 1 (default 15)
	PCas   int // CAS statements, branches and bounded retry loops (default 10)
	PArr   int // array accesses: cell writes, index moves, a[ix] loads (default 10)
}

func defInt(v, d int) int {
	if v == 0 {
		return d
	}
	return v
}

func (p Params) withDefaults() Params {
	p.Threads = defInt(p.Threads, 3)
	p.Vars = defInt(p.Vars, 2)
	p.Stmts = defInt(p.Stmts, 4)
	if p.Threads < 2 {
		p.Threads = 2
	}
	if p.Stmts < 2 {
		p.Stmts = 2
	}
	p.Values = defInt(p.Values, 2)
	p.Budget = defInt(p.Budget, 6)
	p.Depth = defInt(p.Depth, 2)
	p.LoopIters = defInt(p.LoopIters, 2)
	p.ArrLen = defInt(p.ArrLen, 2)
	p.PSwap = defInt(p.PSwap, 15)
	p.PIf = defInt(p.PIf, 20)
	p.PWhile = defInt(p.PWhile, 10)
	p.PRel = defInt(p.PRel, 30)
	p.PAcq = defInt(p.PAcq, 30)
	p.PNA = defInt(p.PNA, 10)
	p.PNeg = defInt(p.PNeg, 5)
	p.PExpr = defInt(p.PExpr, 15)
	p.PCas = defInt(p.PCas, 10)
	p.PArr = defInt(p.PArr, 10)
	return p
}

// Program is one generated artifact: the file, the seed that produced
// it, and the worst-case number of memory events along any execution
// path — the exploration bound that makes verdicts exhaustive.
type Program struct {
	File *parser.File
	Seed int64
	// Bound is the static worst-case memory-event count summed over
	// all threads (reads, writes and updates; silent steps are free).
	Bound int
}

// gens carries the generation state of one program.
type gens struct {
	rng    *rand.Rand
	p      Params
	shared []event.Var
	// init accumulates every variable the program mentions; all start
	// at zero so the file is closed (no uninitialised reads).
	init map[event.Var]event.Val
	// regs and counters are per-thread private-variable counters.
	thread  int
	regN    int
	ctrN    int
	observe []event.Var
	// arr and idx are the shared array and its index variable; writes
	// to idx are always literals in [0, ArrLen), so a[ix] stays inside
	// the initialised cells.
	arr event.Var
	idx event.Var
}

func (g *gens) pct(p int) bool { return g.rng.Intn(100) < p }

// Generate synthesises one program from the seed. Same seed and
// params ⇒ byte-identical file; distinct seeds draw independent rngs,
// so a fuzzing run over seeds s..s+n-1 is reproducible per program.
func Generate(seed int64, params Params) Program {
	p := params.withDefaults()
	g := &gens{
		rng:  rand.New(rand.NewSource(seed)),
		p:    p,
		init: map[event.Var]event.Val{},
	}
	for i := 0; i < p.Vars; i++ {
		x := event.Var(fmt.Sprintf("x%d", i))
		g.shared = append(g.shared, x)
		g.init[x] = 0
		g.observe = append(g.observe, x)
	}
	if p.PArr > 0 {
		g.arr, g.idx = "a", "ix"
		g.init[g.idx] = 0
		for i := 0; i < p.ArrLen; i++ {
			cell := lang.Cell(g.arr, event.Val(i))
			g.init[cell] = 0
			g.observe = append(g.observe, cell)
		}
	}

	nThreads := 2 + g.rng.Intn(p.Threads-1)
	f := &parser.File{
		Name:    fmt.Sprintf("gen-seed%d", seed),
		Init:    g.init,
		Threads: map[int]lang.Com{},
	}
	total := 0
	for t := 1; t <= nThreads; t++ {
		g.thread = t
		g.regN, g.ctrN = 0, 0
		budget := p.Budget
		body := g.block(2+g.rng.Intn(p.Stmts-1), 0, &budget)
		f.Threads[t] = body
		total += p.Budget - budget
	}
	sort.Slice(g.observe, func(i, j int) bool { return g.observe[i] < g.observe[j] })
	f.Observe = g.observe
	return Program{File: f, Seed: seed, Bound: total}
}

// block generates up to n statements at nesting depth d within the
// remaining event budget.
func (g *gens) block(n, d int, budget *int) lang.Com {
	var stmts []lang.Com
	for i := 0; i < n && *budget > 0; i++ {
		stmts = append(stmts, g.stmt(d, budget))
	}
	if len(stmts) == 0 {
		return lang.SkipC()
	}
	return lang.SeqC(stmts...)
}

func (g *gens) stmt(d int, budget *int) lang.Com {
	switch {
	case d < g.p.Depth && *budget >= 6 && g.pct(g.p.PWhile):
		return g.loop(d, budget)
	case d < g.p.Depth && *budget >= 2 && g.pct(g.p.PIf):
		return g.branch(d, budget)
	case *budget >= 1 && g.pct(g.p.PSwap):
		*budget--
		return lang.SwapC(g.sharedVar(), g.val())
	case *budget >= 1 && g.pct(g.p.PCas):
		return g.cas(d, budget)
	case g.arr != "" && *budget >= 1 && g.pct(g.p.PArr):
		return g.arrayStmt(budget)
	default:
		return g.access(budget)
	}
}

// cas emits a compare-and-swap construct: a bounded CAS-retry
// fetch-add when the budget allows one, an if (x.cas(o,n)) branch,
// or a bare x.cas(o,n); statement. A CAS with literal operands is
// one memory event (the update on success, the failing acquiring
// read otherwise); register operands add one read each.
func (g *gens) cas(d int, budget *int) lang.Com {
	x := g.sharedVar()
	switch {
	case d < g.p.Depth && *budget >= 9 && g.pct(35):
		return g.casRetry(x, budget)
	case d < g.p.Depth && *budget >= 3 && g.pct(50):
		*budget--
		then := g.block(1, d+1, budget)
		els := lang.SkipC()
		if g.pct(40) {
			els = g.block(1, d+1, budget)
		}
		return lang.CasC(x, lang.V(g.casExp()), lang.V(g.val()), then, els)
	default:
		*budget--
		return lang.CasStmtC(x, lang.V(g.casExp()), lang.V(g.val()))
	}
}

// casRetry emits the idiomatic bounded CAS-retry fetch-add:
//
//	while (c < iters) {
//	  r := x;
//	  if (x.cas(r, r + 1)) { c := iters; } else { c := c + 1; }
//	}
//
// The private counter bounds the retries, so the loop terminates
// under every model. Worst-case events per iteration: the guard read
// (1), r := x (2), the CAS with its two register reads (3), and the
// losing branch's counter bump (2) — 8 — plus the final guard read.
func (g *gens) casRetry(x event.Var, budget *int) lang.Com {
	iters := 1 + g.rng.Intn(g.p.LoopIters)
	for iters > 1 && *budget < 8*iters+1 {
		iters--
	}
	if *budget < 8*iters+1 {
		return g.access(budget)
	}
	*budget -= 8*iters + 1
	c := event.Var(fmt.Sprintf("c%d_%d", g.thread, g.ctrN))
	g.ctrN++
	g.init[c] = 0
	r := g.reg()
	body := lang.SeqC(
		lang.AssignC(r, g.load(x)),
		lang.CasC(x, lang.X(r), lang.Add(lang.X(r), lang.V(1)),
			lang.AssignC(c, lang.V(event.Val(iters))),
			lang.AssignC(c, lang.Add(lang.X(c), lang.V(1)))),
	)
	guard := lang.Bin{Op: lang.OpLt, L: lang.X(c), R: lang.V(event.Val(iters))}
	return lang.WhileC(guard, body)
}

// casExp draws a CAS expected value from 0..Values — zero included,
// so expectations matching the initial store are generated.
func (g *gens) casExp() event.Val {
	return event.Val(g.rng.Intn(g.p.Values + 1))
}

// arrayStmt emits an array access: a symbolic load r := a[ix] (three
// events: the index read, the cell read, the register write), a
// literal-index cell write, or a move of the shared index variable.
func (g *gens) arrayStmt(budget *int) lang.Com {
	switch {
	case *budget >= 3 && g.pct(40):
		*budget -= 3
		return lang.AssignC(g.reg(), g.idxLoad())
	case g.pct(50):
		*budget--
		return g.writeAt(g.arr, lang.V(g.idxVal()), lang.V(g.val()))
	default:
		*budget--
		return g.write(g.idx, lang.V(g.idxVal()))
	}
}

// idxVal draws a literal index inside the array.
func (g *gens) idxVal() event.Val {
	return event.Val(g.rng.Intn(g.p.ArrLen))
}

// idxLoad builds a[ix] with the usual annotation mix.
func (g *gens) idxLoad() lang.Expr {
	i := lang.X(g.idx)
	switch {
	case g.pct(g.p.PAcq):
		return lang.XAtA(g.arr, i)
	case g.pct(g.p.PNA):
		return lang.XAtNA(g.arr, i)
	default:
		return lang.XAt(g.arr, i)
	}
}

// writeAt mirrors write for indexed assignments.
func (g *gens) writeAt(a event.Var, idx, e lang.Expr) lang.Com {
	switch {
	case g.pct(g.p.PRel):
		return lang.AssignAtRelC(a, idx, e)
	case g.pct(g.p.PNA):
		return lang.AssignAtNAC(a, idx, e)
	default:
		return lang.AssignAtC(a, idx, e)
	}
}

// access emits a plain memory statement: a write, a read into a fresh
// register, or a compound read-then-write.
func (g *gens) access(budget *int) lang.Com {
	x := g.sharedVar()
	switch {
	case *budget >= 2 && g.pct(g.p.PExpr):
		// x := y ⊗ v — one read plus one write.
		*budget -= 2
		e := g.binExpr(g.load(g.sharedVar()), g.val())
		return g.write(x, e)
	case *budget >= 2 && !g.pct(50):
		// r := x is two events: the read and the register write.
		*budget -= 2
		return lang.AssignC(g.reg(), g.load(x))
	default:
		*budget--
		return g.write(x, lang.V(g.val()))
	}
}

// loop emits a terminating bounded loop: a thread-private counter
// guards the body, so every model reads the thread's own latest
// counter write and the loop runs exactly iters times. Worst-case
// cost: iters+1 guard reads, plus per iteration the body and the
// counter increment (one read, one write).
func (g *gens) loop(d int, budget *int) lang.Com {
	iters := 1 + g.rng.Intn(g.p.LoopIters)
	// Reserve the fixed overhead, hand the body what is left for one
	// iteration, then charge the body's actual cost once per iteration.
	overhead := (iters + 1) + 2*iters
	bodyBudget := (*budget - overhead) / iters
	if bodyBudget < 1 {
		return g.access(budget)
	}
	c := event.Var(fmt.Sprintf("c%d_%d", g.thread, g.ctrN))
	g.ctrN++
	g.init[c] = 0
	left := bodyBudget
	body := g.block(1+g.rng.Intn(2), d+1, &left)
	used := bodyBudget - left
	*budget -= overhead + iters*used
	inc := lang.AssignC(c, lang.Add(lang.X(c), lang.V(1)))
	guard := lang.Bin{Op: lang.OpLt, L: lang.X(c), R: lang.V(event.Val(iters))}
	return lang.WhileC(guard, lang.SeqC(body, inc))
}

// branch emits if (load ⊗ v) { … } else { … }; the guard costs one
// read, the branches are charged their worst case (the max, but both
// are generated from the same remaining budget, so the sum bound used
// here is safely conservative).
func (g *gens) branch(d int, budget *int) lang.Com {
	*budget--
	guard := g.binExpr(g.load(g.sharedVar()), g.val())
	then := g.block(1+g.rng.Intn(2), d+1, budget)
	els := lang.SkipC()
	if g.pct(40) {
		els = g.block(1, d+1, budget)
	}
	return lang.IfC(guard, then, els)
}

func (g *gens) write(x event.Var, e lang.Expr) lang.Com {
	switch {
	case g.pct(g.p.PRel):
		return lang.AssignRelC(x, e)
	case g.pct(g.p.PNA):
		return lang.AssignNAC(x, e)
	default:
		return lang.AssignC(x, e)
	}
}

func (g *gens) load(x event.Var) lang.Expr {
	switch {
	case g.pct(g.p.PAcq):
		return lang.XA(x)
	case g.pct(g.p.PNA):
		return lang.XNA(x)
	default:
		return lang.X(x)
	}
}

func (g *gens) binExpr(l lang.Expr, v event.Val) lang.Expr {
	ops := []lang.BinOp{lang.OpEq, lang.OpNe, lang.OpLt, lang.OpAdd, lang.OpSub}
	return lang.Bin{Op: ops[g.rng.Intn(len(ops))], L: l, R: lang.V(v)}
}

func (g *gens) sharedVar() event.Var {
	return g.shared[g.rng.Intn(len(g.shared))]
}

func (g *gens) val() event.Val {
	v := event.Val(1 + g.rng.Intn(g.p.Values))
	if g.pct(g.p.PNeg) {
		v = -v
	}
	return v
}

// reg allocates a fresh thread-private observation register.
func (g *gens) reg() event.Var {
	r := event.Var(fmt.Sprintf("r%d_%d", g.thread, g.regN))
	g.regN++
	g.init[r] = 0
	g.observe = append(g.observe, r)
	return r
}
