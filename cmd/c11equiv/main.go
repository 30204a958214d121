// Command c11equiv is the bounded model-comparison tool — this
// repository's stand-in for the paper's Memalloy mechanisation
// (Appendix E). It enumerates candidate executions up to the given
// size (exhaustively, then randomly at larger sizes) and checks that
// Definition 4.2's eco-based coherence and the weak canonical RAR
// consistency of Definition C.3 classify every candidate identically
// (Theorem C.5). With -diff it compares whole memory models instead:
// every litmus test of the built-in catalog runs under both the RA
// and the SC backend, the outcome sets are diffed (the difference is
// the test's weak behaviours), and any SC-only outcome — SC must
// refine RA — fails the run.
//
// Usage:
//
//	c11equiv                         # default sweep
//	c11equiv -events 4 -vars 2      # exhaustive at 4 events, 2 variables
//	c11equiv -random 100000 -size 7 # randomized at the Alloy bound
//	c11equiv -diff                  # RA vs SC differential on the catalog
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/axiomatic"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/enumerate"
	"repro/internal/event"
	"repro/internal/explore"
	"repro/internal/litmus"
	"repro/internal/sc"
)

func main() {
	var (
		events  = flag.Int("events", 3, "non-initial events for the exhaustive sweep")
		nvars   = flag.Int("vars", 1, "variables for the exhaustive sweep")
		threads = flag.Int("threads", 2, "threads for the exhaustive sweep")
		random  = flag.Int("random", 20000, "number of randomized candidates")
		size    = flag.Int("size", 7, "events for the randomized sweep (Alloy used bound 7)")
		seed    = flag.Int64("seed", 0, "random seed (0 = time-based)")
		diff    = flag.Bool("diff", false, "differential model checking: RA vs SC over the litmus catalog")
		maxEv   = flag.Int("max", 20, "maximum non-initial events per state for -diff")
	)
	var budget cli.Budget
	budget.Register(flag.CommandLine)
	var prof cli.Profile
	prof.Register(flag.CommandLine)
	flag.Usage = cli.Usage(flag.CommandLine,
		"Usage: c11equiv [flags]\n\nChecks Definition 4.2 against Definition C.3 over enumerated candidate\nexecutions (Theorem C.5), or with -diff runs the RA-vs-SC differential\nover the litmus catalog.")
	cli.Parse()
	if err := prof.Start(); err != nil {
		cli.Fatal("c11equiv", err)
	}
	defer prof.Stop()
	if err := budget.Validate(); err != nil {
		cli.Fatal("c11equiv", err)
	}
	if budget.Resume != "" || budget.Checkpoint != "" {
		cli.Fatalf("c11equiv", "checkpointing applies to a single search; use c11explore for one program")
	}
	ctx, release := budget.Start()
	defer release()

	if *diff {
		runModelDiff(*maxEv, budget)
		return
	}
	vars := make([]event.Var, *nvars)
	for i := range vars {
		vars[i] = event.Var(fmt.Sprintf("v%d", i))
	}

	// Exhaustive phase.
	start := time.Now()
	consistent, total := 0, 0
	mismatches := 0
	enumerate.Candidates(enumerate.Params{
		Threads: *threads, Vars: vars, Events: *events,
	}, func(x axiomatic.Exec) bool {
		// The enumeration runs no engine search, so the sweep polls
		// the time budget itself.
		if ctx.Err() != nil {
			return false
		}
		total++
		a, b := x.CoherentDef42(), x.WeakCanonicalConsistent()
		if a != b {
			mismatches++
			fmt.Printf("MISMATCH (def42=%v canonical=%v):\n%s\n", a, b, x)
		}
		if a {
			consistent++
		}
		return true
	})
	fmt.Printf("exhaustive: threads=%d vars=%d events=%d → %d candidates, %d consistent, %d mismatches (%.2fs)\n",
		*threads, *nvars, *events, total, consistent, mismatches, time.Since(start).Seconds())

	// Randomized phase at the Alloy bound.
	s := *seed
	if s == 0 {
		s = time.Now().UnixNano()
	}
	rng := rand.New(rand.NewSource(s))
	start = time.Now()
	rconsistent, rmismatch := 0, 0
	for i := 0; i < *random; i++ {
		if ctx.Err() != nil {
			break
		}
		x := enumerate.Random(rng, enumerate.Params{
			Threads: 3, Vars: []event.Var{"x", "y"}, Events: *size,
		})
		a, b := x.CoherentDef42(), x.WeakCanonicalConsistent()
		if a != b {
			rmismatch++
			fmt.Printf("MISMATCH (def42=%v canonical=%v):\n%s\n", a, b, x)
		}
		if a {
			rconsistent++
		}
	}
	fmt.Printf("randomized: size=%d n=%d seed=%d → %d consistent, %d mismatches (%.2fs)\n",
		*size, *random, s, rconsistent, rmismatch, time.Since(start).Seconds())

	if mismatches+rmismatch > 0 {
		fmt.Println("Theorem C.5 FALSIFIED at these bounds")
		cli.Exit(cli.ExitViolation)
	}
	if ctx.Err() != nil {
		fmt.Printf("Theorem C.5 holds on every candidate checked (sweep stopped early: %s)\n", cli.CutReason(ctx))
		cli.Exit(cli.ExitBounded)
	}
	fmt.Println("Theorem C.5 holds on every candidate checked")
}

// runModelDiff runs every catalog litmus test under both backends and
// diffs the outcome sets. RA-only outcomes are the expected weak
// behaviours; an SC-only outcome breaks the refinement SC ⊆ RA and
// fails the run, as does an expectation failure under either model.
func runModelDiff(maxEv int, budget cli.Budget) {
	opts := explore.Options{MaxEvents: maxEv}
	budget.Apply(&opts)
	failures, differing, bounded := 0, 0, 0
	for _, tc := range litmus.Suite() {
		d := tc.Diff(core.Model, sc.Model, opts)
		fmt.Println(d)
		if !d.Agree() {
			differing++
		}
		if d.TruncatedA || d.TruncatedB {
			// The diff is only conclusive over complete searches; the
			// catalog is sized to finish at the default bound, so a cut
			// means the bound was lowered or a budget bit.
			fmt.Println("    truncated search: diff relative to the bound/budget (raise -max or the budget)")
			bounded++
			continue
		}
		if len(d.OnlyB) > 0 {
			fmt.Printf("    BUG: SC-only outcomes break refinement: %v\n", d.OnlyB)
			failures++
		}
		// Verdicts come from the diff's own outcome sets — no second
		// exploration per backend.
		for _, mo := range []struct {
			name     string
			outcomes map[string]bool
		}{{d.ModelA, d.OutcomesA}, {d.ModelB, d.OutcomesB}} {
			missing, forbidden := tc.CheckOutcomes(mo.name, mo.outcomes)
			if len(missing)+len(forbidden) > 0 {
				fmt.Printf("    %s expectations FAILED: missing=%v forbidden-reached=%v\n",
					mo.name, missing, forbidden)
				failures++
			}
		}
	}
	fmt.Printf("%d tests, %d with RA/SC outcome differences, %d inconclusive, %d failure(s)\n",
		len(litmus.Suite()), differing, bounded, failures)
	if failures > 0 {
		cli.Exit(cli.ExitViolation)
	}
	if bounded > 0 {
		cli.Exit(cli.ExitBounded)
	}
}
