package main

import (
	"flag"
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/axiomatic"
	"repro/internal/ds"
	"repro/internal/explore"
	"repro/internal/litmus"
	"repro/internal/model"
	"repro/internal/model/backends"
)

// litmusCmd runs weak-memory litmus tests under a pluggable memory
// model: the built-in catalog plus the data-structure tier by default,
// or a litmus file given with -f. The catalog carries per-model
// expected verdicts (-model rar checks the RA expectations, -model sc
// the SC ones, -model all both). Under -model all each test runs
// through litmus.Test.Compare: the outcomes reachable under rar but not
// sc (the weak behaviours) are printed, and the test also fails when
// an outcome is reachable under sc but not under a complete rar search:
// SC must refine RA. A file without an observe clause observes every
// initialised variable. With -x it additionally
// cross-checks the RA operational outcome set against the axiomatic
// generate-and-test baseline (loop-free tests only).
func litmusCmd(fs *flag.FlagSet, s *session) func() int {
	var (
		file      = fs.String("f", "", "run a single litmus file instead of the built-in suite")
		runPat    = fs.String("run", "", "only run tests whose name contains this substring")
		maxEv     = fs.Int("max", 20, "maximum non-initial events per state")
		modelName = fs.String("model", "rar",
			"memory model: "+strings.Join(backends.Names(), " | ")+" | all")
		cross   = fs.Bool("x", false, "cross-check RA outcomes against the axiomatic semantics")
		verbose = fs.Bool("v", false, "print the full outcome set per test")
		workers = fs.Int("workers", 0, "explorer parallelism (0 = GOMAXPROCS)")
	)
	return func() int {
		models := backends.All()
		if *modelName != "all" {
			m, err := backends.Get(*modelName)
			if err != nil {
				return fail(err)
			}
			models = []model.Model{m}
		}

		var tests []*litmus.Test
		// The data-structure tier rides along with the catalog: each
		// scenario carries linearizability-style outcome properties on
		// top of its allow/forbid expectations, checked after the run.
		scenarios := map[*litmus.Test]ds.Scenario{}
		if *file != "" {
			f, err := readProgram(*file)
			if err != nil {
				return fail(err)
			}
			tc, err := f.Test()
			if err != nil {
				return fail(err)
			}
			if len(tc.Observe) == 0 {
				for x := range tc.Init {
					tc.Observe = append(tc.Observe, x)
				}
				slices.Sort(tc.Observe)
			}
			tests = []*litmus.Test{tc}
		} else {
			tests = litmus.Suite()
			for _, scn := range ds.Suite() {
				tests = append(tests, scn.Test)
				scenarios[scn.Test] = scn
			}
		}

		failures, bounded, ran, differing := 0, 0, 0, 0
		for _, tc := range tests {
			if *runPat != "" && !strings.Contains(tc.Name, *runPat) {
				continue
			}
			if s.ctx.Err() != nil {
				// The time budget is spent: remaining tests would all
				// come back cut.
				bounded++
				fmt.Printf("%s: remaining tests skipped\n", cutReason(s.ctx))
				break
			}
			ran++
			scn, isDS := scenarios[tc]
			// The reduction keeps every terminated configuration, so the
			// outcome sets are those of the full search.
			eopts := explore.Options{MaxEvents: *maxEv, Workers: *workers, POR: true}
			if isDS && tc.MaxEvents > 0 {
				// A scenario's expectations are exact *at* its pinned
				// bound (the .lit maxevents clause); -max does not
				// apply.
				eopts.MaxEvents = tc.MaxEvents
			}
			// One registry across the whole suite: the progress line
			// and -metrics summary accumulate over all tests.
			s.apply(&eopts)
			var (
				reps []litmus.Report
				cmp  litmus.Comparison
			)
			if *modelName == "all" {
				// backends.All lists rar, then sc.
				cmp = tc.Compare(models[0], models[1], eopts)
				reps = []litmus.Report{cmp.RA, cmp.SC}
			} else {
				reps = []litmus.Report{tc.RunModel(models[0], eopts)}
			}
			for _, rep := range reps {
				if rep.Truncated && !isDS {
					// DS scenarios with retry/spin loops truncate at
					// their pinned bound by design — the bound is part
					// of the scenario, so the verdict is not
					// "relative" to it.
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
				if rep.Truncated && s.ctx.Err() != nil {
					// The search was interrupted mid-flight: its
					// partial outcome set would read as missing
					// expectations, but the run is inconclusive, not
					// failing.
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
					if v := scn.CheckProps(rep.Outcomes); len(v) != 0 {
						failures++
						for _, p := range v {
							fmt.Printf("    property violated: %s\n", p)
						}
					}
				}
			}
			if *modelName == "all" {
				if cmp.Differ() {
					differing++
				}
				for _, k := range cmp.RAOnly {
					fmt.Printf("    rar-only outcome: %s\n", k)
				}
				if cmp.RefinementBroken() {
					fmt.Printf("    BUG: SC-only outcomes break refinement: %v\n", cmp.SCOnly)
					failures++
				}
			}
			if *cross && !isDS {
				// The axiomatic baseline enumerates loop-free programs;
				// the DS scenarios all carry retry or spin loops.
				ax := axiomatic.ValidExecutions(tc.Prog, tc.Init, 2**maxEv)
				xopts := explore.Options{MaxEvents: 2 * *maxEv}
				s.apply(&xopts)
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
		code := exitProved
		if failures > 0 {
			fmt.Printf("%d failure(s)\n", failures)
			code = exitViolation
		} else if bounded > 0 {
			// No expectation failed, but some search was cut by a bound
			// or budget: the pass is relative to what was explored.
			fmt.Printf("%d truncated search(es): verdicts are relative to the bound/budget\n", bounded)
			code = exitBounded
		}
		if *modelName == "all" {
			fmt.Printf("%d tests, %d with RA/SC outcome differences\n", ran, differing)
		}
		return code
	}
}
