package litmus

import (
	"math/rand"
	"testing"

	"repro/internal/axiomatic"
	"repro/internal/event"
	"repro/internal/explore"
	"repro/internal/lang"
)

// Differential testing: random loop-free programs, executed through
// the operational semantics and through the axiomatic generate-and-
// test procedure, must produce identical execution sets (Theorems 4.4
// and 4.8 together). This is the strongest internal consistency check
// in the repository: any divergence in observability, mo insertion,
// justification search or replay shows up as a set difference.

// randProgram generates a loop-free program: 2–3 threads, 2–4
// statements each, over 2 shared variables and small values, with
// random annotations (including updates and non-atomics).
func randProgram(rng *rand.Rand) (lang.Prog, map[event.Var]event.Val) {
	vars := []event.Var{"x", "y"}
	regs := []event.Var{"r1", "r2", "r3", "r4", "r5", "r6"}
	regIdx := 0
	nThreads := 2

	randLoad := func(x event.Var) lang.Expr {
		switch rng.Intn(3) {
		case 0:
			return lang.XA(x)
		case 1:
			return lang.XNA(x)
		default:
			return lang.X(x)
		}
	}

	p := make(lang.Prog, nThreads)
	for t := range p {
		nStmts := 2 + rng.Intn(2)
		stmts := make([]lang.Com, 0, nStmts)
		for s := 0; s < nStmts; s++ {
			x := vars[rng.Intn(len(vars))]
			v := event.Val(1 + rng.Intn(2))
			switch rng.Intn(5) {
			case 0: // relaxed or release or NA write
				switch rng.Intn(3) {
				case 0:
					stmts = append(stmts, lang.AssignRelC(x, lang.V(v)))
				case 1:
					stmts = append(stmts, lang.AssignNAC(x, lang.V(v)))
				default:
					stmts = append(stmts, lang.AssignC(x, lang.V(v)))
				}
			case 1: // swap
				stmts = append(stmts, lang.SwapC(x, v))
			case 2, 3: // read into a register
				if regIdx < len(regs) {
					stmts = append(stmts, lang.AssignC(regs[regIdx], randLoad(x)))
					regIdx++
				} else {
					stmts = append(stmts, lang.AssignC(x, lang.V(v)))
				}
			case 4: // conditional on a read
				if regIdx < len(regs) {
					inner := lang.AssignC(regs[regIdx], lang.V(9))
					regIdx++
					stmts = append(stmts, lang.IfC(
						lang.Eq(randLoad(x), lang.V(1)), inner, lang.SkipC()))
				} else {
					stmts = append(stmts, lang.SkipC())
				}
			}
		}
		p[t] = lang.SeqC(stmts...)
	}
	init := map[event.Var]event.Val{"x": 0, "y": 0}
	for i := 0; i < regIdx; i++ {
		init[regs[i]] = 0
	}
	return p, init
}

// operational is axiomatic.OperationalExecutions under a bound the
// loop-free test programs never reach, failing unless the search ran
// to completion — a partial set would make every comparison
// meaningless.
func operational(t *testing.T, p lang.Prog, vars map[event.Var]event.Val) map[string]axiomatic.Exec {
	t.Helper()
	op, res := axiomatic.OperationalExecutions(p, vars, explore.Options{MaxEvents: 48})
	if res.Verdict != explore.VerdictProved || res.Truncated {
		t.Fatalf("operational search incomplete: verdict=%s truncated=%v", res.Verdict, res.Truncated)
	}
	return op
}

func TestDifferentialRandomPrograms(t *testing.T) {
	rng := rand.New(rand.NewSource(20190220))
	trials := 50
	if testing.Short() {
		trials = 10
	}
	for i := 0; i < trials; i++ {
		p, vars := randProgram(rng)
		op := operational(t, p, vars)
		ax := axiomatic.ValidExecutions(p, vars, 48)
		if len(op) == 0 {
			t.Fatalf("trial %d: no operational executions for %s", i, p)
		}
		for sig := range op {
			if _, ok := ax[sig]; !ok {
				t.Fatalf("trial %d: operational-only execution (soundness breach)\nprogram: %s\n%s",
					i, p, sig)
			}
		}
		for sig := range ax {
			if _, ok := op[sig]; !ok {
				t.Fatalf("trial %d: axiomatic-only execution (completeness breach)\nprogram: %s\n%s",
					i, p, sig)
			}
		}
	}
}

// Every execution from the differential runs also replays (Theorem
// 4.8) and satisfies both consistency predicates (Theorem C.5 applied
// to real program executions rather than synthetic candidates).
func TestDifferentialReplayAndConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 15; i++ {
		p, vars := randProgram(rng)
		for sig, x := range operational(t, p, vars) {
			if !x.CoherentDef42() || !x.WeakCanonicalConsistent() {
				t.Fatalf("trial %d: inconsistent reachable execution %s", i, sig)
			}
			st, err := x.ReplayFull()
			if err != nil {
				t.Fatalf("trial %d: replay failed: %v", i, err)
			}
			if axiomatic.FromState(st).CanonicalSignature() != sig {
				t.Fatalf("trial %d: replay diverged", i)
			}
		}
	}
}
