package main

import (
	"flag"
	"fmt"
	"slices"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/explore"
	"repro/internal/lang"
	"repro/internal/litmus"
	"repro/internal/model"
	"repro/internal/model/backends"
	"repro/internal/proof"
)

// verifyCmd machine-checks the paper's Peterson verification (§5.2):
// it explores every configuration of the RA Peterson lock up to the
// event bound, checks the invariants (4)–(10) of Lemma D.1 at each,
// and confirms mutual exclusion (Theorem 5.8) both directly and via
// the paper's derivation. With -variant it runs the weakened negative
// controls, reporting the invariant that breaks and a violation
// witness if mutual exclusion fails. With -model sc the same program
// runs under the sequentially consistent backend, where the
// invariants of the RA proof have no C11 state to live in and mutual
// exclusion is checked directly (a sanity baseline: Peterson is
// SC-correct by construction).
func verifyCmd(fs *flag.FlagSet, s *session) func() int {
	var (
		maxEv     = fs.Int("max", 12, "maximum non-initial events per state")
		variant   = fs.String("variant", "ra", "ra | weak-turn | relaxed-guard | relaxed-reset")
		modelName = fs.String("model", "rar",
			"memory model: "+strings.Join(backends.Names(), " | "))
		workers = fs.Int("workers", 0, "explorer parallelism (0 = GOMAXPROCS)")
		por     = fs.Bool("por", true,
			"partial-order reduction: explore commuting interleavings once (the invariant sweep then covers the reduced state space; run -por=false for the full one)")
		auditFl = fs.Bool("audit", false,
			"self-audit: the unreduced search with the incremental and collision audits, diffed against a serial and a parallel reduced search — invariant verdicts, terminated states, reachability (zero divergences expected)")
	)
	return func() int {
		var (
			prog lang.Prog
			vars map[event.Var]event.Val
		)
		switch *variant {
		case "ra":
			prog, vars = litmus.Peterson()
		case "weak-turn":
			prog, vars = litmus.PetersonWeakTurn()
		case "relaxed-guard":
			prog, vars = litmus.PetersonRelaxedGuard()
		case "relaxed-reset":
			prog, vars = litmus.PetersonRelaxedReset()
		default:
			return fail(fmt.Errorf("unknown variant %q", *variant))
		}
		m, err := backends.Get(*modelName)
		if err != nil {
			return fail(err)
		}

		start := time.Now()
		rar := m.Name() == "rar"
		// The property runs concurrently under a parallel explorer, so
		// it only reports the verdict; diagnostics are recomputed from
		// the violating configuration below. Under the RA backend it
		// checks the paper's invariants and Theorem 5.8 both directly
		// and via the derivation; under SC only mutual exclusion is
		// meaningful.
		property := litmus.MutualExclusion
		if rar {
			property = func(c model.Config) bool {
				cc := c.(core.Config)
				return len(proof.CheckPetersonInvariants(cc)) == 0 &&
					proof.Theorem58(cc) && proof.DeriveTheorem58(cc)
			}
		}
		opts := explore.Options{
			MaxEvents: *maxEv,
			Workers:   *workers,
			POR:       *por,
			Property:  property,
		}
		s.apply(&opts)
		if *auditFl {
			return s.audit(m, m.New(prog, vars), opts)
		}
		res := explore.Run(m.New(prog, vars), opts)

		fmt.Printf("model=%s variant=%s bound=%d explored=%d depth=%d truncated=%v por=%v (%.2fs)\n",
			m.Name(), *variant, *maxEv, res.Explored, res.Depth, res.Truncated, *por, time.Since(start).Seconds())
		fmt.Println(describe(res))

		if res.Violation == nil {
			if res.Verdict == explore.VerdictBounded {
				// The budget (or a panic) cut the sweep: no violation
				// was seen, but the bound was not exhausted.
				fmt.Println("Theorem 5.8 (mutual exclusion): INCONCLUSIVE — the search was cut before the bound was exhausted")
				return exitBounded
			}
			if rar {
				if *por {
					fmt.Println("invariants (4)-(10) hold in every explored configuration (POR-reduced state space; -por=false sweeps all of it)")
				} else {
					fmt.Println("invariants (4)-(10) hold in every reachable configuration")
				}
			}
			fmt.Println("Theorem 5.8 (mutual exclusion): VERIFIED at this bound")
			return exitProved
		}

		if rar {
			badConfig := res.Violation.(core.Config)
			if badInvariants := proof.CheckPetersonInvariants(badConfig); len(badInvariants) > 0 {
				fmt.Printf("invariants violated: %v\n", badInvariants)
				named := 0 // an invariant's obligations share its ID and name
				for _, a := range proof.PetersonInvariants() {
					if a.ID != named && slices.Contains(badInvariants, a.ID) {
						fmt.Printf("  (%d) %s\n", a.ID, a.Name)
						named = a.ID
					}
				}
			}
		}
		// Mutual exclusion itself: search for a concrete double-CS state.
		trace, found := explore.FindTrace(m.New(prog, vars), explore.Options{
			MaxEvents: *maxEv,
			Context:   s.ctx,
		}, func(c model.Config) bool { return !litmus.MutualExclusion(c) })
		switch {
		case found:
			fmt.Printf("MUTUAL EXCLUSION VIOLATED — witness of %d steps:\n", len(trace.Configs)-1)
			fmt.Print(trace.Describe())
			if last, ok := trace.Configs[len(trace.Configs)-1].(core.Config); ok {
				fmt.Println("final state:")
				fmt.Print(last.S)
			}
		case s.ctx.Err() != nil:
			fmt.Printf("mutual exclusion witness search stopped early (%s); the invariants above are violated\n", cutReason(s.ctx))
		default:
			fmt.Println("mutual exclusion still holds at this bound (only auxiliary invariants broke)")
		}
		return exitViolation
	}
}

// audit runs explore.Audit from cfg for -audit: exit 1 on any
// divergence, 2 when a budget cut left the contracts uncompared.
func (s *session) audit(m model.Model, cfg model.Config, opts explore.Options) int {
	a := explore.Audit(cfg, opts)
	fmt.Printf("model=%s %s\n", m.Name(), a)
	if a.Divergences() > 0 {
		return exitViolation
	} else if a.Cut {
		return exitBounded
	}
	return exitProved
}
