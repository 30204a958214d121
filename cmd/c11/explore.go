package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"

	"repro/internal/axiomatic"
	"repro/internal/bits"
	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/explore"
	"repro/internal/model"
	"repro/internal/model/backends"
	"repro/internal/parser"
	"repro/internal/races"
	"repro/internal/vis"
)

// exploreCmd explores the bounded state space of a program under a
// pluggable memory model — the RA operational semantics (-model rar,
// the default) or sequential consistency (-model sc) — and reports
// reachable terminal executions, optionally rendering one execution
// as Graphviz dot or an ASCII diagram. With -races it additionally
// searches for reachable non-atomic data races. (The RA/SC outcome-set
// difference of a program is litmus -f FILE -model all.)
func exploreCmd(fs *flag.FlagSet, s *session) func() int {
	var (
		file      = fs.String("f", "", "program file to explore")
		example   = fs.String("example", "", "rebuild a paper example (3.2)")
		modelName = fs.String("model", "rar",
			"memory model: "+strings.Join(backends.Names(), " | "))
		maxEv   = fs.Int("max", 20, "maximum non-initial events per state (rar model)")
		dot     = fs.Bool("dot", false, "print a dot graph of one terminal execution (rar model)")
		ascii   = fs.Bool("ascii", false, "print an ASCII diagram of one terminal execution (rar model)")
		racesFl = fs.Bool("races", false, "search for reachable non-atomic data races (rar model)")
		workers = fs.Int("workers", 0, "explorer parallelism (0 = GOMAXPROCS)")
		por     = fs.Bool("por", true,
			"partial-order reduction: explore commuting interleavings once (sleep sets + persistent-set heuristic)")
		auditFl = fs.Bool("audit", false,
			"self-audit: the unreduced search with the incremental and collision audits, diffed against a serial and a parallel reduced search — property verdicts, terminated states, reachability (zero divergences expected)")
	)
	return func() int {
		if *example != "" {
			return runExample(*example, *dot)
		}
		m, err := backends.Get(*modelName)
		if err != nil {
			return fail(err)
		}
		// Flag validation up front, before any exploration is paid for.
		if *racesFl && m.Name() != "rar" {
			return fail(fmt.Errorf("-races needs the rar model (data races are defined over the C11 happens-before order)"))
		}

		opts := explore.Options{
			MaxEvents: *maxEv,
			Workers:   *workers,
			POR:       *por,
		}
		s.apply(&opts)

		if *file == "" {
			return fail(fmt.Errorf("need -f FILE or -example N"))
		}
		f, err := readProgram(*file)
		if err != nil {
			return fail(err)
		}
		prog, err := f.Prog()
		if err != nil {
			return fail(err)
		}
		cfg := m.New(prog, f.Init)

		if *auditFl {
			return s.audit(m, cfg, opts)
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
		res := explore.Run(cfg, opts)
		fmt.Printf("model=%s explored %d configurations, %d terminated, depth %d, truncated=%v, por=%v\n",
			m.Name(), res.Explored, res.Terminated, res.Depth, res.Truncated, *por)
		fmt.Println(describe(res))

		if *racesFl {
			if code := reportRaces(core.NewConfig(prog, f.Init), explore.Options{MaxEvents: *maxEv, Context: s.ctx}); code != exitProved {
				return code
			}
		}

		if sample != nil && (*dot || *ascii) {
			rc, ok := sample.(core.Config)
			if !ok {
				return fail(fmt.Errorf("-dot/-ascii render C11 event graphs; use -model rar"))
			}
			x := axiomatic.FromState(rc.S)
			if *dot {
				fmt.Print(vis.Dot(x, vis.Default()))
			}
			if *ascii {
				fmt.Print(vis.ASCII(x))
			}
		}
		return exitCode(res)
	}
}

// readProgram reads and parses a .lit program file.
func readProgram(path string) (*parser.File, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read program: %w", err)
	}
	return parser.Parse(path, string(src))
}

// reportRaces prints a race verdict, with a shortest witness when a
// race is reachable. A search the time budget cut is inconclusive: it
// reports so and returns exitBounded instead of claiming absence.
func reportRaces(cfg core.Config, opts explore.Options) int {
	trace, rs, found := races.FindRace(cfg, opts)
	if !found {
		if opts.Context.Err() != nil {
			fmt.Printf("data races: INCONCLUSIVE — %s before the race search finished\n", cutReason(opts.Context))
			return exitBounded
		}
		fmt.Println("data races: none reachable within the bound")
		return exitProved
	}
	fmt.Printf("DATA RACE — %d racy pair(s) at a state %d steps from the root:\n", len(rs), len(trace.Configs)-1)
	for _, r := range rs {
		fmt.Printf("    %s\n", r)
	}
	fmt.Print(trace.Describe())
	return exitViolation
}

// runExample rebuilds Example 3.2 through the event semantics and
// renders it.
func runExample(name string, asDot bool) int {
	if name != "3.2" {
		return fail(fmt.Errorf("unknown example %q (have: 3.2)", name))
	}
	s := core.Init(map[event.Var]event.Val{"x": 0, "y": 0, "z": 0})
	ix, _ := s.InitialFor("x")
	iy, _ := s.InitialFor("y")
	iz, _ := s.InitialFor("z")
	step := func(f func() (*core.State, event.Event, error)) event.Tag {
		ns, e, err := f()
		if err != nil {
			panic(err) // the example's steps are fixed: only a bug fails one
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
		return exitProved
	}
	fmt.Print(vis.ASCII(x))
	fmt.Println()
	// acts lists the actions of a set of writes, comma-separated.
	acts := func(ws bits.Set) string {
		var names []string
		ws.ForEach(func(i int) { names = append(names, s.Event(event.Tag(i)).Act.String()) })
		return strings.Join(names, ", ")
	}
	for t := event.Thread(1); t <= 4; t++ {
		fmt.Printf("EW(%d): %s\n", t, acts(s.EncounteredWrites(t)))
	}
	for t := event.Thread(1); t <= 4; t++ {
		fmt.Printf("OW(%d): %s\n", t, acts(s.ObservableWrites(t)))
	}
	fmt.Printf("CW: %s\n", acts(s.CoveredWrites()))
	return exitProved
}
