// Command c11litmus runs weak-memory litmus tests under a pluggable
// memory model: the built-in catalog by default, or a litmus file
// given with -f. The catalog carries per-model expected verdicts
// (-model rar checks the RA expectations, -model sc the SC ones,
// -model all both). With -x it additionally cross-checks the RA
// operational outcome set against the axiomatic generate-and-test
// baseline (loop-free tests only).
//
// Usage:
//
//	c11litmus                 # run the built-in suite under RA
//	c11litmus -model sc       # same suite under SC expectations
//	c11litmus -model all      # both backends
//	c11litmus -run MP         # tests whose name contains "MP"
//	c11litmus -f test.lit     # run one litmus file
//	c11litmus -x              # cross-check against the axiomatic model
//	c11litmus -max 24 -v      # deeper bound, verbose outcomes
//
// The litmus file grammar is documented in docs/litmus-format.md,
// with a worked example per file under testdata/.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/axiomatic"
	"repro/internal/cli"
	"repro/internal/ds"
	"repro/internal/explore"
	"repro/internal/litmus"
	"repro/internal/model"
	"repro/internal/model/backends"
	"repro/internal/parser"
)

func main() {
	var (
		file      = flag.String("f", "", "run a single litmus file instead of the built-in suite")
		runPat    = flag.String("run", "", "only run tests whose name contains this substring")
		maxEv     = flag.Int("max", 20, "maximum non-initial events per state")
		modelName = flag.String("model", "rar",
			"memory model: "+strings.Join(backends.Names(), " | ")+" | all")
		cross   = flag.Bool("x", false, "cross-check RA outcomes against the axiomatic semantics")
		verbose = flag.Bool("v", false, "print the full outcome set per test")
		workers = flag.Int("workers", 0, "explorer parallelism (0 = GOMAXPROCS)")
	)
	var budget cli.Budget
	budget.Register(flag.CommandLine)
	var prof cli.Profile
	prof.Register(flag.CommandLine)
	var tel cli.Telemetry
	tel.Register(flag.CommandLine)
	flag.Usage = cli.Usage(flag.CommandLine,
		"Usage: c11litmus [flags]\n\nRuns weak-memory litmus tests under a pluggable memory model.\nThe .lit file grammar accepted by -f is documented in docs/litmus-format.md\n(one worked example per file under testdata/).")
	cli.Parse()
	if err := prof.Start(); err != nil {
		cli.Fatal("c11litmus", err)
	}
	defer prof.Stop()
	if err := budget.Validate(); err != nil {
		cli.Fatal("c11litmus", err)
	}
	if err := tel.Start(); err != nil {
		cli.Fatal("c11litmus", err)
	}
	defer tel.Stop()
	if budget.Resume != "" || budget.Checkpoint != "" {
		cli.Fatalf("c11litmus", "checkpointing applies to a single search; use c11explore -f for one program")
	}
	ctx, release := budget.Start()
	defer release()

	var models []model.Model
	if *modelName == "all" {
		models = backends.All()
	} else {
		m, err := backends.Get(*modelName)
		if err != nil {
			fatal(err)
		}
		models = []model.Model{m}
	}

	var tests []*litmus.Test
	// The data-structure tier rides along with the catalog: each
	// scenario carries linearizability-style outcome properties on top
	// of its allow/forbid expectations, checked after the run.
	scenarios := map[*litmus.Test]ds.Scenario{}
	if *file != "" {
		src, err := os.ReadFile(*file)
		if err != nil {
			fatal(err)
		}
		f, err := parser.Parse(*file, string(src))
		if err != nil {
			fatal(err)
		}
		tc, err := f.Test()
		if err != nil {
			fatal(err)
		}
		tests = []*litmus.Test{tc}
	} else {
		tests = litmus.Suite()
		for _, s := range ds.Suite() {
			tests = append(tests, s.Test)
			scenarios[s.Test] = s
		}
	}

	failures, bounded := 0, 0
	for _, tc := range tests {
		if *runPat != "" && !strings.Contains(tc.Name, *runPat) {
			continue
		}
		if ctx.Err() != nil {
			// The time budget is spent: remaining tests would all come
			// back cut.
			bounded++
			fmt.Printf("%s: remaining tests skipped\n", cli.CutReason(ctx))
			break
		}
		s, isDS := scenarios[tc]
		for _, m := range models {
			eopts := explore.Options{MaxEvents: *maxEv, Workers: *workers}
			if isDS && tc.MaxEvents > 0 {
				// A scenario's expectations are exact *at* its pinned
				// bound (the .lit maxevents clause); -max does not apply.
				eopts.MaxEvents = tc.MaxEvents
			}
			budget.Apply(&eopts)
			// One registry across the whole suite: the progress line
			// and -metrics summary accumulate over all tests.
			tel.Apply(&eopts)
			rep := tc.RunModel(m, eopts)
			if rep.Truncated && !isDS {
				// DS scenarios with retry/spin loops truncate at their
				// pinned bound by design — the bound is part of the
				// scenario, so the verdict is not "relative" to it.
				bounded++
			}
			fmt.Println(rep.Summary())
			if *verbose {
				keys := make([]string, 0, len(rep.Outcomes))
				for k := range rep.Outcomes {
					keys = append(keys, k)
				}
				sort.Strings(keys)
				for _, k := range keys {
					fmt.Printf("    %s\n", k)
				}
			}
			if ctx.Err() != nil {
				// The search was interrupted mid-flight: its partial
				// outcome set would read as missing expectations, but
				// the run is inconclusive, not failing.
				continue
			}
			if !rep.Pass() {
				failures++
				for _, mo := range rep.MissingAllowed {
					fmt.Printf("    missing allowed outcome: %s\n", mo)
				}
				for _, r := range rep.ReachedForbidden {
					fmt.Printf("    reached forbidden outcome: %s\n", r)
				}
			}
			if isDS {
				if v := s.CheckProps(rep.Outcomes); len(v) != 0 {
					failures++
					for _, p := range v {
						fmt.Printf("    property violated: %s\n", p)
					}
				}
			}
		}
		if *cross && !isDS {
			// The axiomatic baseline enumerates loop-free programs; the
			// DS scenarios all carry retry or spin loops.
			ax := axiomatic.ValidExecutions(tc.Prog, tc.Init, 2**maxEv)
			xopts := explore.Options{MaxEvents: 2 * *maxEv}
			budget.Apply(&xopts)
			tel.Apply(&xopts)
			op, res := axiomatic.OperationalExecutions(tc.Prog, tc.Init, xopts)
			status := "AGREE"
			switch {
			case res.Verdict == explore.VerdictBounded || res.Truncated:
				// A cut search leaves a partial set: the comparison
				// says nothing either way.
				status, bounded = "INCONCLUSIVE", bounded+1
			case len(ax) != len(op):
				status, failures = "DISAGREE", failures+1
			default:
				for sig := range op {
					if _, ok := ax[sig]; !ok {
						status, failures = "DISAGREE", failures+1
						break
					}
				}
			}
			fmt.Printf("    cross-check: operational=%d axiomatic=%d %s\n",
				len(op), len(ax), status)
		}
	}
	if failures > 0 {
		fmt.Printf("%d failure(s)\n", failures)
		cli.Exit(cli.ExitViolation)
	}
	if bounded > 0 {
		// No expectation failed, but some search was cut by a bound or
		// budget: the pass is relative to what was explored.
		fmt.Printf("%d truncated search(es): verdicts are relative to the bound/budget\n", bounded)
		cli.Exit(cli.ExitBounded)
	}
}

func fatal(err error) {
	cli.Fatal("c11litmus", err)
}
