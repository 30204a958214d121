package axiomatic

import (
	"sort"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/explore"
	"repro/internal/lang"
)

// This file implements the pre-execution semantics of §4.1 and the
// two-step "generate-and-test" procedure the axiomatic model
// prescribes: (1) enumerate candidate pre-executions of a program in
// which reads return arbitrary (domain-bounded) values, then (2)
// justify each with rf/mo relations satisfying the axioms. It is both
// the reference point for the soundness/completeness theorems and the
// baseline against which the operational semantics' on-the-fly read
// validation is benchmarked.

// ValueDomain returns every value a read of the program could be
// justified with: the initial values plus every literal written by
// the program, closed under the arithmetic the program applies to
// loaded values. Writes are the only producers of values in the
// language, but a written expression like x^A + 1 derives a value
// outside the literal set — the random-program fuzzer surfaced
// exactly this gap, with operational executions writing values the
// candidate enumeration could not guess. The closure runs one round
// per arithmetic node — each node fires once per evaluation of its
// expression, so straight-line derivation chains (more nodes, more
// rounds) are covered exactly. Loop-carried accumulation (a node
// re-evaluated per unfolding, like a counter increment) is NOT fully
// covered: any static round count would be; callers enumerating
// loopy programs remain bound-relative, as they already are through
// their maxEvents cut. The domain is capped at domainCap values
// (derivers applied in collection order over a sorted base, so the
// truncation is deterministic) — non-literal ⊗ non-literal nodes
// close pairwise and would otherwise grow doubly-exponentially.
func ValueDomain(p lang.Prog, vars map[event.Var]event.Val) []event.Val {
	seen := map[event.Val]bool{}
	for _, v := range vars {
		seen[v] = true
	}
	// arith collects the value-deriving operator applications: +lit,
	// -lit (in either operand order) and unary negation. comparisons
	// and logical operators only ever derive 0 or 1.
	type deriver struct {
		op  lang.BinOp
		lit event.Val
		neg bool // unary negation
		any bool // non-literal ⊗ non-literal: pairwise closure
	}
	var arith []deriver
	bool01 := false
	var walkCom func(c lang.Com)
	var walkExpr func(e lang.Expr)
	walkExpr = func(e lang.Expr) {
		switch x := e.(type) {
		case lang.Lit:
			seen[x.V] = true
		case lang.IdxLoad:
			walkExpr(x.I)
		case lang.Un:
			if x.Op == lang.OpNeg {
				arith = append(arith, deriver{neg: true})
			} else {
				bool01 = true
			}
			walkExpr(x.E)
		case lang.Bin:
			switch x.Op {
			case lang.OpAdd, lang.OpSub:
				if l, ok := x.L.(lang.Lit); ok {
					arith = append(arith, deriver{op: x.Op, lit: l.V})
				} else if r, ok := x.R.(lang.Lit); ok {
					arith = append(arith, deriver{op: x.Op, lit: r.V})
				} else {
					arith = append(arith, deriver{op: x.Op, any: true})
				}
			default:
				bool01 = true
			}
			walkExpr(x.L)
			walkExpr(x.R)
		}
	}
	walkCom = func(c lang.Com) {
		switch x := c.(type) {
		case lang.Assign:
			if x.Idx != nil {
				walkExpr(x.Idx)
			}
			walkExpr(x.E)
		case lang.Swap:
			seen[x.N] = true
		case lang.Cas:
			if x.Idx != nil {
				walkExpr(x.Idx)
			}
			walkExpr(x.Old)
			walkExpr(x.New)
			walkCom(x.Then)
			walkCom(x.Else)
		case lang.Seq:
			walkCom(x.C1)
			walkCom(x.C2)
		case lang.If:
			walkExpr(x.B)
			walkCom(x.Then)
			walkCom(x.Else)
		case lang.While:
			walkExpr(x.Guard)
			walkCom(x.Body)
		case lang.Label:
			walkCom(x.C)
		}
	}
	for _, c := range p {
		walkCom(c)
	}
	if bool01 {
		seen[0] = true
		seen[1] = true
	}
	// Close: one round per collected node (a node fires once per
	// evaluation; deeper chains consist of more nodes and get more
	// rounds), stopping deterministically at the cap.
	const domainCap = 512
	add := func(v event.Val) {
		if len(seen) < domainCap {
			seen[v] = true
		}
	}
	for round := 0; round < len(arith) && len(seen) < domainCap; round++ {
		base := make([]event.Val, 0, len(seen))
		for v := range seen {
			base = append(base, v)
		}
		sort.Slice(base, func(i, j int) bool { return base[i] < base[j] })
		for _, d := range arith {
			for _, v := range base {
				switch {
				case d.neg:
					add(-v)
				case d.any:
					for _, w := range base {
						if d.op == lang.OpAdd {
							add(v + w)
						} else {
							add(v - w)
						}
					}
				case d.op == lang.OpAdd:
					add(v + d.lit)
					add(d.lit + v)
				default: // OpSub, literal on one side
					add(v - d.lit)
					add(d.lit - v)
				}
			}
		}
	}
	out := make([]event.Val, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// PreExecutions enumerates the complete pre-executions of the program
// (every thread terminated), with read values drawn from domain.
// Interleavings that produce identical per-thread event sequences are
// deduplicated, since the pre-execution state (D, sb) does not depend
// on the interleaving (Proposition 4.1). Runs exceeding maxEvents
// events are abandoned; truncated reports whether any run was cut off.
func PreExecutions(p lang.Prog, vars map[event.Var]event.Val, domain []event.Val, maxEvents int, yield func(Exec) bool) (truncated bool) {
	type key struct{ prog, trace string }
	seen := map[key]bool{}
	stopped := false

	perThread := make([][]event.Action, len(p))

	traceKey := func() string {
		s := ""
		for _, evs := range perThread {
			for _, a := range evs {
				s += a.String() + ";"
			}
			s += "|"
		}
		return s
	}

	build := func() Exec {
		// Tags: initials (sorted by var) then thread 1's events, then
		// thread 2's, ... — per-thread tag order equals sb order.
		names := make([]event.Var, 0, len(vars))
		for x := range vars {
			names = append(names, x)
		}
		sort.Slice(names, func(i, j int) bool { return names[i] < names[j] })
		var events []event.Event
		for _, x := range names {
			events = append(events, event.Event{
				Tag: event.Tag(len(events)), Act: event.Wr(x, vars[x]), TID: event.InitThread,
			})
		}
		nInit := len(events)
		threadStart := make([]int, len(p))
		for ti, evs := range perThread {
			threadStart[ti] = len(events)
			for _, a := range evs {
				events = append(events, event.Event{
					Tag: event.Tag(len(events)), Act: a, TID: event.Thread(ti + 1),
				})
			}
		}
		x := NewExec(events)
		for i := 0; i < nInit; i++ {
			for j := nInit; j < len(events); j++ {
				x.SB.Add(i, j)
			}
		}
		for ti := range perThread {
			start := threadStart[ti]
			for i := 0; i < len(perThread[ti]); i++ {
				for j := i + 1; j < len(perThread[ti]); j++ {
					x.SB.Add(start+i, start+j)
				}
			}
		}
		return x
	}

	count := func() int {
		n := 0
		for _, evs := range perThread {
			n += len(evs)
		}
		return n
	}

	var dfs func(prog lang.Prog)
	dfs = func(prog lang.Prog) {
		if stopped {
			return
		}
		k := key{prog.String(), traceKey()}
		if seen[k] {
			return
		}
		seen[k] = true

		if prog.Terminated() {
			if !yield(build()) {
				stopped = true
			}
			return
		}
		if count() >= maxEvents {
			truncated = true
			return
		}
		for _, ps := range lang.ProgSteps(prog) {
			ti := int(ps.T) - 1
			switch ps.S.Kind {
			case lang.StepSilent:
				dfs(prog.WithThread(ps.T, ps.S.Apply(0)))
			case lang.StepWrite:
				a, _ := ps.S.Action(0)
				perThread[ti] = append(perThread[ti], a)
				dfs(prog.WithThread(ps.T, ps.S.Apply(0)))
				perThread[ti] = perThread[ti][:len(perThread[ti])-1]
			case lang.StepRead, lang.StepUpdate, lang.StepCas:
				// A CAS's Action internally picks its face per value:
				// updRA when v equals the expected value, rdA otherwise.
				for _, v := range domain {
					a, _ := ps.S.Action(v)
					perThread[ti] = append(perThread[ti], a)
					dfs(prog.WithThread(ps.T, ps.S.Apply(v)))
					perThread[ti] = perThread[ti][:len(perThread[ti])-1]
					if stopped {
						return
					}
				}
			}
			if stopped {
				return
			}
		}
	}
	dfs(p)
	return truncated
}

// ValidExecutions computes the set of valid complete executions of the
// program the axiomatic way: enumerate pre-executions, justify each,
// and deduplicate by canonical signature. This is the paper's post-hoc
// procedure (and the benchmark baseline).
func ValidExecutions(p lang.Prog, vars map[event.Var]event.Val, maxEvents int) map[string]Exec {
	domain := ValueDomain(p, vars)
	out := map[string]Exec{}
	PreExecutions(p, vars, domain, maxEvents, func(pre Exec) bool {
		pre.Justifications(func(just Exec) bool {
			out[just.CanonicalSignature()] = just
			return true
		})
		return true
	})
	return out
}

// OperationalExecutions computes the same set through the operational
// semantics of internal/core: one engine search (explore.Run) to
// termination, collecting every terminated configuration's execution
// keyed by canonical signature. Theorems 4.4 and 4.8 say the result
// equals ValidExecutions; the test suite asserts exactly that, and the
// benchmark harness compares the costs. opts bounds the search like
// any other — MaxEvents, MaxConfigs, the Context's deadline and
// cancellation — except that it always runs serially and under
// partial-order reduction, which preserves every terminated
// configuration. Any property in opts is replaced by the collector.
// The Result tells whether the set is complete: a BOUNDED verdict or
// a Truncated search leaves it partial.
func OperationalExecutions(p lang.Prog, vars map[event.Var]event.Val, opts explore.Options) (map[string]Exec, explore.Result) {
	out := map[string]Exec{}
	opts.Workers = 1 // the collector writes out unlocked
	opts.POR = true
	opts.Property = nil
	opts.TypedProperty = func(c core.Config) bool {
		if c.Terminated() {
			x := FromState(c.S)
			out[x.CanonicalSignature()] = x
		}
		return true
	}
	res := explore.Run(core.NewConfig(p, vars), opts)
	return out, res
}
