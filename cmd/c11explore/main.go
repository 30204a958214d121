// Command c11explore explores the bounded state space of a program
// under a pluggable memory model — the RA operational semantics
// (-model rar, the default) or sequential consistency (-model sc) —
// and reports reachable terminal executions, optionally rendering one
// execution as Graphviz dot or an ASCII diagram. With -diff it runs
// both models on the same program and reports the outcome-set
// difference: exactly the weak-memory behaviours. With -races it
// additionally searches for reachable non-atomic data races.
//
// Usage:
//
//	c11explore -f prog.lit            # explore, print statistics
//	c11explore -f prog.lit -model sc  # same program under SC
//	c11explore -f prog.lit -diff      # RA vs SC outcome difference
//	c11explore -f prog.lit -races     # + data-race detection
//	c11explore -f prog.lit -dot       # dot graph of one terminal state
//	c11explore -f prog.lit -ascii     # ASCII diagram instead
//	c11explore -example 3.2           # rebuild the paper's Example 3.2
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"

	"repro/internal/axiomatic"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/explore"
	"repro/internal/lang"
	"repro/internal/litmus"
	"repro/internal/model"
	"repro/internal/model/backends"
	"repro/internal/parser"
	"repro/internal/races"
	"repro/internal/vis"
)

func main() {
	var (
		file      = flag.String("f", "", "program file to explore")
		example   = flag.String("example", "", "rebuild a paper example (3.2)")
		modelName = flag.String("model", "rar",
			"memory model: "+strings.Join(backends.Names(), " | "))
		diff    = flag.Bool("diff", false, "run both models and report outcome-set differences")
		maxEv   = flag.Int("max", 20, "maximum non-initial events per state (rar model)")
		dot     = flag.Bool("dot", false, "print a dot graph of one terminal execution (rar model)")
		ascii   = flag.Bool("ascii", false, "print an ASCII diagram of one terminal execution (rar model)")
		racesFl = flag.Bool("races", false, "search for reachable non-atomic data races (rar model)")
		workers = flag.Int("workers", 0, "explorer parallelism (0 = GOMAXPROCS)")
		por     = flag.Bool("por", true,
			"partial-order reduction: explore commuting interleavings once (sleep sets + persistent-set heuristic)")
		checkFP = flag.Bool("checkcollisions", false,
			"audit the 128-bit fingerprints against the exact canonical signatures of every configuration reached (slow)")
		checkInc = flag.Bool("checkincremental", false,
			"recompute the model's incrementally maintained structures from scratch at each configuration and count disagreements")
		checkPOR = flag.Bool("checkpor", false,
			"run the reduced and the full search and diff reachable-state fingerprints and property verdicts (zero divergences expected)")
	)
	var budget cli.Budget
	budget.Register(flag.CommandLine)
	var prof cli.Profile
	prof.Register(flag.CommandLine)
	var tel cli.Telemetry
	tel.Register(flag.CommandLine)
	flag.Usage = cli.Usage(flag.CommandLine,
		"Usage: c11explore [flags]\n\nExplores the bounded state space of a program under a pluggable memory model.")
	cli.Parse()
	if err := prof.Start(); err != nil {
		cli.Fatal("c11explore", err)
	}
	defer prof.Stop()
	if err := budget.Validate(); err != nil {
		cli.Fatal("c11explore", err)
	}
	if err := tel.Start(); err != nil {
		cli.Fatal("c11explore", err)
	}
	defer tel.Stop()
	ctx, release := budget.Start()
	defer release()

	if *example != "" {
		runExample(*example, *dot)
		return
	}

	m, err := backends.Get(*modelName)
	if err != nil {
		cli.Fatal("c11explore", err)
	}
	// Flag validation up front, before any exploration is paid for.
	if *racesFl && *diff {
		cli.Fatalf("c11explore", "-races and -diff are separate modes; run them one at a time")
	}
	if *racesFl && m.Name() != "rar" {
		cli.Fatalf("c11explore", "-races needs the rar model (data races are defined over the C11 happens-before order)")
	}

	opts := explore.Options{
		MaxEvents:        *maxEv,
		Workers:          *workers,
		POR:              *por,
		CheckCollisions:  *checkFP,
		CheckIncremental: *checkInc,
	}
	tel.Apply(&opts)

	var (
		f    *parser.File
		prog lang.Prog
		cfg  model.Config
	)
	if budget.Resume == "" {
		// A fresh search needs a program; a resumed one restores its
		// state (and bounds) from the checkpoint.
		if *file == "" {
			cli.Fatalf("c11explore", "need -f FILE, -example N or -resume CHECKPOINT")
		}
		src, err := os.ReadFile(*file)
		if err != nil {
			cli.Fatal("c11explore", fmt.Errorf("read program: %w", err))
		}
		if f, err = parser.Parse(*file, string(src)); err != nil {
			cli.Fatal("c11explore", err)
		}
		if prog, err = f.Prog(); err != nil {
			cli.Fatal("c11explore", err)
		}
		cfg = m.New(prog, f.Init)
	} else if *diff || *racesFl || *checkPOR {
		cli.Fatalf("c11explore", "-resume continues a plain exploration; it cannot drive -diff, -races or -checkpor")
	}

	if *diff {
		budget.Apply(&opts)
		runDiff(f, prog, opts)
		return
	}
	if *checkPOR {
		budget.Apply(&opts)
		audit := explore.CheckPOR(cfg, opts)
		fmt.Printf("model=%s %s\n", m.Name(), audit)
		if audit.Divergences() > 0 {
			cli.Exit(cli.ExitViolation)
		}
		return
	}
	var mu sync.Mutex
	var sample model.Config
	opts.Property = func(c model.Config) bool {
		if c.Terminated() {
			mu.Lock()
			if sample == nil {
				sample = c
			}
			mu.Unlock()
		}
		return true
	}
	res, err := budget.Execute(m, cfg, opts)
	if err != nil {
		cli.Fatal("c11explore", err)
	}
	fmt.Printf("model=%s explored %d configurations, %d terminated, depth %d, truncated=%v, por=%v\n",
		m.Name(), res.Explored, res.Terminated, res.Depth, res.Truncated, *por)
	fmt.Println(cli.Describe(res))
	if *checkFP {
		fmt.Printf("fingerprint collisions: %d\n", res.FingerprintCollisions)
		if res.FingerprintCollisions > 0 {
			cli.Exit(cli.ExitViolation)
		}
	}
	if *checkInc {
		fmt.Printf("closure mismatches: %d\n", res.ClosureMismatches)
		if res.ClosureMismatches > 0 {
			cli.Exit(cli.ExitViolation)
		}
	}

	if *racesFl {
		reportRaces(core.NewConfig(prog, f.Init), explore.Options{MaxEvents: *maxEv, Context: ctx})
	}

	if sample != nil && (*dot || *ascii) {
		rc, ok := sample.(core.Config)
		if !ok {
			cli.Fatalf("c11explore", "-dot/-ascii render C11 event graphs; use -model rar")
		}
		x := axiomatic.FromState(rc.S)
		if *dot {
			fmt.Print(vis.Dot(x, vis.Default()))
		}
		if *ascii {
			fmt.Print(vis.ASCII(x))
		}
	}
	if code := cli.ExitCode(res); code != cli.ExitProved {
		cli.Exit(code)
	}
}

// runDiff compares the RA and SC outcome sets of the program: the
// difference is the program's weak-memory behaviours. The observation
// set comes from the file's observe clause, falling back to every
// initialised variable.
func runDiff(f *parser.File, prog lang.Prog, opts explore.Options) {
	observe := f.Observe
	if len(observe) == 0 {
		for x := range f.Init {
			observe = append(observe, x)
		}
		sort.Slice(observe, func(i, j int) bool { return observe[i] < observe[j] })
	}
	tc := &litmus.Test{Name: f.Name, Prog: prog, Init: f.Init, Observe: observe}
	ra, _ := backends.Get("rar")
	sc, _ := backends.Get("sc")
	d := tc.Diff(ra, sc, opts)
	fmt.Println(d)
	if len(d.OnlyA) > 0 {
		fmt.Println("weak behaviours (reachable under rar, forbidden under sc):")
		for _, k := range d.OnlyA {
			fmt.Printf("    %s\n", k)
		}
	}
	if d.TruncatedA || d.TruncatedB {
		// A cut search leaves its outcome set a prefix: outcomes on
		// either side of the diff may just not have been reached yet.
		fmt.Println("note: a search was truncated; the diff is relative to the bound (raise -max)")
	}
	if len(d.OnlyB) > 0 {
		if d.TruncatedA {
			// The rar search was cut, so an SC-only outcome is an
			// artefact of the bound, not a refinement violation.
			fmt.Println("outcomes reachable under sc but missing from the truncated rar search:")
			for _, k := range d.OnlyB {
				fmt.Printf("    %s\n", k)
			}
			return
		}
		// Both searches complete and SC refines RA: a backend bug.
		fmt.Println("BUG: outcomes reachable under sc but not rar:")
		for _, k := range d.OnlyB {
			fmt.Printf("    %s\n", k)
		}
		cli.Exit(cli.ExitViolation)
	}
}

// reportRaces prints a race verdict, with a shortest witness when a
// race is reachable. A search the time budget cut is inconclusive:
// it reports so and exits ExitBounded instead of claiming absence.
func reportRaces(cfg core.Config, opts explore.Options) {
	trace, rs, found := races.FindRace(cfg, opts)
	if !found {
		if opts.Context.Err() != nil {
			fmt.Printf("data races: INCONCLUSIVE — %s before the race search finished\n", cli.CutReason(opts.Context))
			cli.Exit(cli.ExitBounded)
		}
		fmt.Println("data races: none reachable within the bound")
		return
	}
	fmt.Printf("DATA RACE — %d racy pair(s) at a state %d steps from the root:\n", len(rs), len(trace.Configs)-1)
	for _, r := range rs {
		fmt.Printf("    %s\n", r)
	}
	fmt.Print(trace.Describe())
	cli.Exit(cli.ExitViolation)
}

// runExample rebuilds Example 3.2 through the event semantics and
// renders it.
func runExample(name string, asDot bool) {
	if name != "3.2" {
		cli.Fatalf("c11explore", "unknown example %q (have: 3.2)", name)
	}
	s := core.Init(map[event.Var]event.Val{"x": 0, "y": 0, "z": 0})
	ix, _ := s.InitialFor("x")
	iy, _ := s.InitialFor("y")
	iz, _ := s.InitialFor("z")
	step := func(f func() (*core.State, event.Event, error)) event.Tag {
		ns, e, err := f()
		if err != nil {
			fatal(err)
		}
		s = ns
		return e.Tag
	}
	wrR2 := step(func() (*core.State, event.Event, error) { return s.StepWrite(2, true, "x", 2, ix) })
	step(func() (*core.State, event.Event, error) { return s.StepWrite(2, false, "y", 1, iy) })
	step(func() (*core.State, event.Event, error) { return s.StepRead(3, true, "x", wrR2) })
	wz := step(func() (*core.State, event.Event, error) { return s.StepWrite(3, false, "z", 3, iz) })
	step(func() (*core.State, event.Event, error) { return s.StepRMW(1, "x", 4, wrR2) })
	step(func() (*core.State, event.Event, error) { return s.StepRMW(4, "y", 5, iy) })
	step(func() (*core.State, event.Event, error) { return s.StepRead(4, false, "z", wz) })

	x := axiomatic.FromState(s)
	if asDot {
		o := vis.Default()
		o.FR = true
		o.Title = "Example 3.2"
		fmt.Print(vis.Dot(x, o))
	} else {
		fmt.Print(vis.ASCII(x))
		fmt.Println()
		for t := event.Thread(1); t <= 4; t++ {
			fmt.Printf("EW(%d): ", t)
			first := true
			s.EncounteredWrites(t).ForEach(func(i int) {
				if !first {
					fmt.Print(", ")
				}
				first = false
				fmt.Print(s.Event(event.Tag(i)).Act)
			})
			fmt.Println()
		}
		for t := event.Thread(1); t <= 4; t++ {
			fmt.Printf("OW(%d): ", t)
			first := true
			s.ObservableWrites(t).ForEach(func(i int) {
				if !first {
					fmt.Print(", ")
				}
				first = false
				fmt.Print(s.Event(event.Tag(i)).Act)
			})
			fmt.Println()
		}
		fmt.Print("CW: ")
		first := true
		s.CoveredWrites().ForEach(func(i int) {
			if !first {
				fmt.Print(", ")
			}
			first = false
			fmt.Print(s.Event(event.Tag(i)).Act)
		})
		fmt.Println()
	}
}

func fatal(err error) {
	cli.Fatal("c11explore", err)
}
