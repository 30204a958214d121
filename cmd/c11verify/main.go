// Command c11verify machine-checks the paper's Peterson verification
// (§5.2): it explores every configuration of the RA Peterson lock up
// to the event bound, checks the invariants (4)–(10) of Lemma D.1 at
// each, and confirms mutual exclusion (Theorem 5.8) both directly and
// via the paper's derivation. With -variant it runs the weakened
// negative controls, reporting the invariant that breaks and a
// violation witness if mutual exclusion fails. With -model sc the
// same program runs under the sequentially consistent backend, where
// the invariants of the RA proof have no C11 state to live in and
// mutual exclusion is checked directly (a sanity baseline: Peterson
// is SC-correct by construction).
//
// Usage:
//
//	c11verify                       # verify the RA Peterson lock
//	c11verify -max 14               # deeper bound
//	c11verify -model sc             # mutual exclusion under SC
//	c11verify -variant weak-turn    # broken variant: plain turn writes
//	c11verify -variant relaxed-guard
//	c11verify -variant relaxed-reset
package main

import (
	"flag"
	"fmt"
	"slices"
	"strings"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/explore"
	"repro/internal/lang"
	"repro/internal/litmus"
	"repro/internal/model"
	"repro/internal/model/backends"
	"repro/internal/proof"
)

func main() {
	var (
		maxEv     = flag.Int("max", 12, "maximum non-initial events per state")
		variant   = flag.String("variant", "ra", "ra | weak-turn | relaxed-guard | relaxed-reset")
		modelName = flag.String("model", "rar",
			"memory model: "+strings.Join(backends.Names(), " | "))
		workers = flag.Int("workers", 0, "explorer parallelism (0 = GOMAXPROCS)")
		por     = flag.Bool("por", true,
			"partial-order reduction: explore commuting interleavings once (the invariant sweep then covers the reduced state space; run -por=false for the full one)")
		checkInc = flag.Bool("checkincremental", false,
			"audit the model's incrementally maintained structures against from-scratch recomputation at every configuration")
		checkPOR = flag.Bool("checkpor", false,
			"run the reduced and the full search and diff reachable-state fingerprints and invariant verdicts (zero divergences expected)")
	)
	var budget cli.Budget
	budget.Register(flag.CommandLine)
	var prof cli.Profile
	prof.Register(flag.CommandLine)
	var tel cli.Telemetry
	tel.Register(flag.CommandLine)
	flag.Usage = cli.Usage(flag.CommandLine,
		"Usage: c11verify [flags]\n\nMachine-checks the paper's Peterson verification (invariants (4)-(10), Theorem 5.8).")
	cli.Parse()
	if err := prof.Start(); err != nil {
		cli.Fatal("c11verify", err)
	}
	defer prof.Stop()
	if err := budget.Validate(); err != nil {
		cli.Fatal("c11verify", err)
	}
	if err := tel.Start(); err != nil {
		cli.Fatal("c11verify", err)
	}
	defer tel.Stop()
	ctx, release := budget.Start()
	defer release()

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
		cli.Fatalf("c11verify", "unknown variant %q", *variant)
	}

	m, err := backends.Get(*modelName)
	if err != nil {
		cli.Fatal("c11verify", err)
	}

	start := time.Now()
	rar := m.Name() == "rar"
	// The property runs concurrently under a parallel explorer, so it
	// only reports the verdict; diagnostics are recomputed from the
	// violating configuration below. Under the RA backend it checks
	// the paper's invariants and Theorem 5.8 both directly and via the
	// derivation; under SC only mutual exclusion is meaningful.
	property := litmus.MutualExclusion
	if rar {
		property = func(c model.Config) bool {
			cc := c.(core.Config)
			return len(proof.CheckPetersonInvariants(cc)) == 0 &&
				proof.Theorem58(cc) && proof.DeriveTheorem58(cc)
		}
	}
	opts := explore.Options{
		MaxEvents:        *maxEv,
		Workers:          *workers,
		POR:              *por,
		CheckIncremental: *checkInc,
		Property:         property,
	}
	tel.Apply(&opts)
	if *checkPOR {
		budget.Apply(&opts)
		audit := explore.CheckPOR(m.New(prog, vars), opts)
		fmt.Printf("model=%s %s\n", m.Name(), audit)
		if audit.Divergences() > 0 {
			cli.Exit(cli.ExitViolation)
		}
		return
	}
	res, err := budget.Execute(m, m.New(prog, vars), opts)
	if err != nil {
		cli.Fatal("c11verify", err)
	}

	fmt.Printf("model=%s variant=%s bound=%d explored=%d depth=%d truncated=%v por=%v (%.2fs)\n",
		m.Name(), *variant, *maxEv, res.Explored, res.Depth, res.Truncated, *por, time.Since(start).Seconds())
	fmt.Println(cli.Describe(res))
	if *checkInc {
		fmt.Printf("closure mismatches: %d\n", res.ClosureMismatches)
		if res.ClosureMismatches > 0 {
			cli.Exit(cli.ExitViolation)
		}
	}

	if res.Violation == nil {
		if res.Verdict == explore.VerdictBounded {
			// The budget (or a panic) cut the sweep: no violation was
			// seen, but the bound was not exhausted — inconclusive.
			fmt.Println("Theorem 5.8 (mutual exclusion): INCONCLUSIVE — the search was cut before the bound was exhausted")
			cli.Exit(cli.ExitBounded)
		}
		if rar {
			if *por {
				fmt.Println("invariants (4)-(10) hold in every explored configuration (POR-reduced state space; -por=false sweeps all of it)")
			} else {
				fmt.Println("invariants (4)-(10) hold in every reachable configuration")
			}
		}
		fmt.Println("Theorem 5.8 (mutual exclusion): VERIFIED at this bound")
		return
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
		Context:   ctx,
	}, func(c model.Config) bool { return !litmus.MutualExclusion(c) })
	if found {
		fmt.Printf("MUTUAL EXCLUSION VIOLATED — witness of %d steps:\n", len(trace.Configs)-1)
		fmt.Print(trace.Describe())
		if last, ok := trace.Configs[len(trace.Configs)-1].(core.Config); ok {
			fmt.Println("final state:")
			fmt.Print(last.S)
		}
		cli.Exit(cli.ExitViolation)
	}
	if ctx.Err() != nil {
		fmt.Printf("mutual exclusion witness search stopped early (%s); the invariants above are violated\n", cli.CutReason(ctx))
	} else {
		fmt.Println("mutual exclusion still holds at this bound (only auxiliary invariants broke)")
	}
	cli.Exit(cli.ExitViolation)
}
