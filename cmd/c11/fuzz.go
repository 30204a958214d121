package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/gen"
)

// fuzzCmd differentially fuzzes the memory-model backends with
// randomly generated litmus programs. Each program is drawn
// deterministically from a seed (program i of a run uses seed+i, so
// any single program can be regenerated with -seed <s> -n 1),
// round-trips through the parser's grammar printer, and runs through
// the full oracle battery of internal/gen: SC ⊆ RA outcome
// refinement, the partial-order-reduction audit, the incremental-
// closure audit, the fingerprint-collision audit, and serial-vs-
// parallel engine equivalence — all in-process. A failing program is
// minimised by the greedy shrinker while it keeps failing the same
// oracle, and written to the corpus directory with its seed, so the
// finding is reproducible from the header alone. Programs use the
// generator's default parameters. -timeout is the deadline of every
// oracle search, and no new program starts past it; -max-states caps
// each search (0 = gen's default of 32768).
func fuzzCmd(fs *flag.FlagSet, s *session) func() int {
	var (
		seed    = fs.Int64("seed", 1, "base seed; program i uses seed+i")
		n       = fs.Int("n", 100, "number of programs to generate")
		corpus  = fs.String("corpus", "fuzz-corpus", "directory for shrunk reproducers")
		replay  = fs.String("replay", "", "re-judge every .lit file in this directory instead of generating")
		keep    = fs.String("keep", "", "also write every generated program (failing or not) into this directory")
		v       = fs.Bool("v", false, "per-program progress lines")
		maxEv   = fs.Int("max", 0, "RAR exploration bound (default: derived per program)")
		workers = fs.Int("workers", 0, "parallel width of the self-audit's unreduced and parallel reduced searches (default 8)")
	)
	return func() int {
		opts := gen.CheckOpts{MaxEvents: *maxEv, MaxConfigs: s.budget.maxStates, Workers: *workers,
			Context: s.ctx,
			// One registry and tracer across the campaign: the progress
			// line and -metrics summary accumulate over all oracle runs.
			Metrics: s.reg, Tracer: s.tracer}
		if *replay != "" {
			return replayDir(*replay, opts, *v)
		}
		return fuzz(*seed, *n, opts, *corpus, *keep, *v)
	}
}

// fuzz generates and judges n programs, shrinking and writing any
// failure, and prints a run summary. Returns the exit status.
func fuzz(seed int64, n int, opts gen.CheckOpts, corpus, keep string, verbose bool) int {
	start := time.Now()
	failures, weak, truncated := 0, 0, 0
	ran := 0
	for i := 0; i < n; i++ {
		if opts.Context.Err() != nil {
			fmt.Printf("%s after %d programs\n", cutReason(opts.Context), ran)
			break
		}
		s := seed + int64(i)
		prog := gen.Generate(s, gen.Params{})
		ran++
		if keep != "" {
			writeKept(keep, prog)
		}
		po := opts
		if po.MaxEvents == 0 {
			// Bound+1: no path has more events, so the RAR searches
			// run to completion and verdicts are exhaustive.
			po.MaxEvents = prog.Bound + 1
		}
		rep := gen.Check(prog.File, po)
		if rep.TruncatedRA {
			truncated++
		}
		if len(rep.Weak) > 0 {
			weak++
		}
		if verbose {
			fmt.Printf("seed %-8d ra=%-6d sc=%-6d weak=%d%s\n",
				s, rep.ExploredRA, rep.ExploredSC, len(rep.Weak), failTag(rep.Failure))
		}
		if rep.Failure == nil {
			continue
		}
		failures++
		fmt.Printf("seed %d FAILED %s — shrinking...\n", s, rep.Failure)
		shrunk := gen.Shrink(prog.File, gen.Predicate(rep.Failure.Kind, po))
		path, err := gen.WriteRepro(corpus, gen.Repro{
			Seed: s, Fail: rep.Failure,
			Shrunk: shrunk, Orig: prog.File,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "c11 fuzz: write reproducer: %v\n", err)
		} else {
			fmt.Printf("seed %d reproducer: %s\n%s", s, path, shrunk.Format())
		}
	}
	fmt.Printf("c11 fuzz: %d programs in %v: %d failed, %d with weak behaviours, %d truncated\n",
		ran, time.Since(start).Round(time.Millisecond), failures, weak, truncated)
	if failures > 0 {
		return exitViolation
	}
	if ran < n {
		// The time budget cut the run: nothing failed, but not every
		// requested program was judged.
		return exitBounded
	}
	return exitProved
}

func failTag(f *gen.Failure) string {
	if f == nil {
		return ""
	}
	return "  FAIL " + f.String()
}

// replayDir re-judges every corpus file — the regression mode CI runs
// over checked-in reproducers. Returns the exit status.
func replayDir(dir string, opts gen.CheckOpts, verbose bool) int {
	files, err := gen.LoadCorpus(dir)
	if err != nil {
		return fail(fmt.Errorf("load corpus: %w", err))
	}
	if len(files) == 0 {
		fmt.Printf("c11 fuzz: no corpus files under %s\n", dir)
		return exitProved
	}
	failures := 0
	for _, f := range files {
		rep := gen.Check(f, opts)
		status := "ok"
		if rep.Failure != nil {
			failures++
			status = "FAIL " + rep.Failure.String()
		}
		if verbose || rep.Failure != nil {
			fmt.Printf("%-40s %s\n", f.Name, status)
		}
	}
	fmt.Printf("c11 fuzz: replayed %d corpus files, %d failing\n", len(files), failures)
	if failures > 0 {
		return exitViolation
	}
	return exitProved
}

// writeKept archives one generated program (pre-judgement) for corpus
// building and triage.
func writeKept(dir string, p gen.Program) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "c11 fuzz:", err)
		return
	}
	path := filepath.Join(dir, fmt.Sprintf("%s.lit", p.File.Name))
	src := fmt.Sprintf("// generated: seed %d, worst-case events %d\n%s", p.Seed, p.Bound, p.File.Format())
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "c11 fuzz:", err)
	}
}
