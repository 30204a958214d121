package main

import (
	"flag"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/axiomatic"
	"repro/internal/enumerate"
	"repro/internal/event"
)

// equivCmd is the bounded model-comparison tool — this repository's
// stand-in for the paper's Memalloy mechanisation (Appendix E). It
// enumerates candidate executions up to the given size (exhaustively,
// then randomly at larger sizes) and checks that Definition 4.2's
// eco-based coherence and the weak canonical RAR consistency of
// Definition C.3 classify every candidate identically (Theorem C.5).
// It runs no engine search, so of the budgets only -timeout acts.
func equivCmd(fs *flag.FlagSet, s *session) func() int {
	var (
		events  = fs.Int("events", 3, "non-initial events for the exhaustive sweep")
		nvars   = fs.Int("vars", 1, "variables for the exhaustive sweep")
		threads = fs.Int("threads", 2, "threads for the exhaustive sweep")
		random  = fs.Int("random", 20000, "number of randomized candidates")
		size    = fs.Int("size", 7, "events for the randomized sweep (Alloy used bound 7)")
		seed    = fs.Int64("seed", 0, "random seed (0 = time-based)")
	)
	return func() int {
		vars := make([]event.Var, *nvars)
		for i := range vars {
			vars[i] = event.Var(fmt.Sprintf("v%d", i))
		}
		// classify checks one candidate under both definitions and
		// counts it, printing it when they disagree.
		classify := func(x axiomatic.Exec, consistent, mismatches *int) {
			a, b := x.CoherentDef42(), x.WeakCanonicalConsistent()
			if a != b {
				*mismatches++
				fmt.Printf("MISMATCH (def42=%v canonical=%v):\n%s\n", a, b, x)
			}
			if a {
				*consistent++
			}
		}

		// Exhaustive phase.
		start := time.Now()
		consistent, total, mismatches := 0, 0, 0
		enumerate.Candidates(enumerate.Params{
			Threads: *threads, Vars: vars, Events: *events,
		}, func(x axiomatic.Exec) bool {
			// The enumeration runs no engine search, so the sweep polls
			// the time budget itself.
			if s.ctx.Err() != nil {
				return false
			}
			total++
			classify(x, &consistent, &mismatches)
			return true
		})
		fmt.Printf("exhaustive: threads=%d vars=%d events=%d → %d candidates, %d consistent, %d mismatches (%.2fs)\n",
			*threads, *nvars, *events, total, consistent, mismatches, time.Since(start).Seconds())

		// Randomized phase at the Alloy bound.
		sd := *seed
		if sd == 0 {
			sd = time.Now().UnixNano()
		}
		rng := rand.New(rand.NewSource(sd))
		start = time.Now()
		rconsistent, rmismatch := 0, 0
		for i := 0; i < *random && s.ctx.Err() == nil; i++ {
			classify(enumerate.Random(rng, enumerate.Params{
				Threads: 3, Vars: []event.Var{"x", "y"}, Events: *size,
			}), &rconsistent, &rmismatch)
		}
		fmt.Printf("randomized: size=%d n=%d seed=%d → %d consistent, %d mismatches (%.2fs)\n",
			*size, *random, sd, rconsistent, rmismatch, time.Since(start).Seconds())

		if mismatches+rmismatch > 0 {
			fmt.Println("Theorem C.5 FALSIFIED at these bounds")
			return exitViolation
		}
		if s.ctx.Err() != nil {
			fmt.Printf("Theorem C.5 holds on every candidate checked (sweep stopped early: %s)\n", cutReason(s.ctx))
			return exitBounded
		}
		fmt.Println("Theorem C.5 holds on every candidate checked")
		return exitProved
	}
}
