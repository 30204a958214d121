package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"repro/internal/explore"
	"repro/internal/telemetry"
)

// shared selects the flag groups a subcommand shares with others. A
// subcommand registers a group only where its flags act; -timeout acts
// in every subcommand and is always registered.
type shared uint8

const (
	statesFlag     shared = 1 << iota // -max-states
	profileFlags                      // -cpuprofile, -memprofile
	telemetryFlags                    // -progress, -trace, -metrics
)

// budget is the resource-governance flag set.
type budget struct {
	// timeout bounds the wall clock of the whole invocation — every
	// engine search the subcommand runs shares one deadline (0 = none).
	timeout time.Duration
	// maxStates bounds distinct configurations per search (0 = the
	// subcommand's default).
	maxStates int
}

// session is one subcommand invocation's shared state: the shared
// flags, and what starting them built.
type session struct {
	budget                 budget
	cpuProfile, memProfile string
	// progress is the -progress interval (0 = off; the bare flag means
	// one second).
	progress  time.Duration
	tracePath string
	metrics   bool

	// ctx is the invocation's time budget: cancelled on SIGINT or
	// SIGTERM, and at the -timeout deadline.
	ctx    context.Context
	reg    *telemetry.Registry
	tracer *telemetry.Tracer
}

// register installs -timeout and the shared flags of the groups in set
// on fs.
func (s *session) register(fs *flag.FlagSet, set shared) {
	b := &s.budget
	fs.DurationVar(&b.timeout, "timeout", 0,
		"wall-clock budget for the whole invocation; past it every search stops with a sound partial result (0 = none)")
	if set&statesFlag != 0 {
		fs.IntVar(&b.maxStates, "max-states", 0,
			"state budget per search: distinct configurations admitted (0 = default)")
	}
	if set&profileFlags != 0 {
		fs.StringVar(&s.cpuProfile, "cpuprofile", "",
			"write a pprof CPU profile of the run to this path")
		fs.StringVar(&s.memProfile, "memprofile", "",
			"write a pprof heap profile (after a final GC) to this path when the run ends")
	}
	if set&telemetryFlags != 0 {
		fs.Var(progressFlag{&s.progress}, "progress",
			"print live search progress to stderr every second; -progress=500ms sets the interval")
		fs.StringVar(&s.tracePath, "trace", "",
			"write a Chrome trace_event JSON search trace (worker lifecycle, expansion batches, budget events) to this path")
		fs.BoolVar(&s.metrics, "metrics", false,
			"print the final engine metric counters and gauges to stderr when the run ends")
	}
}

// validate checks flag consistency after parsing.
func (b budget) validate() error {
	if b.maxStates < 0 || b.timeout < 0 {
		return fmt.Errorf("budget flags must be non-negative")
	}
	return nil
}

// start builds the invocation's one time budget: a context cancelled
// on SIGINT or SIGTERM and, when -timeout is positive, at the deadline
// that far from now. An interrupted search stops at its next admission
// check with StopCancelled and is reported like any other budget cut:
// partial statistics and exit 2.
func (b budget) start() (context.Context, context.CancelFunc) {
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	if b.timeout <= 0 {
		return ctx, stopSignals
	}
	ctx, cancel := context.WithTimeout(ctx, b.timeout)
	return ctx, func() { cancel(); stopSignals() }
}

// apply folds the time budget, the state budget and the telemetry
// sinks into engine options. Subcommands
// that run many searches (litmus) apply it to each; the registry then
// accumulates across them.
func (s *session) apply(o *explore.Options) {
	if s.ctx != nil {
		o.Context = s.ctx
	}
	if s.budget.maxStates > 0 {
		o.MaxConfigs = s.budget.maxStates
	}
	if s.reg != nil {
		o.Metrics = s.reg
	}
	if s.tracer != nil {
		o.Tracer = s.tracer
	}
}

// exitCode maps an exploration result to the shared convention.
func exitCode(res explore.Result) int {
	switch res.Verdict {
	case explore.VerdictViolated:
		return exitViolation
	case explore.VerdictBounded:
		return exitBounded
	default:
		return exitProved
	}
}

// describe renders the governance part of a result in one line:
// verdict, stop cause, coverage. Subcommands print it after their own
// statistics so partial results are always visibly partial.
func describe(res explore.Result) string {
	s := fmt.Sprintf("verdict=%s", res.Verdict)
	if res.Stop != explore.StopNone {
		s += fmt.Sprintf(" stop=%s", res.Stop)
	}
	if res.Frontier > 0 {
		s += fmt.Sprintf(" frontier=%d", res.Frontier)
	}
	if len(res.Panics) > 0 {
		s += fmt.Sprintf(" isolated-panics=%d", len(res.Panics))
	}
	return s
}

// cutReason names what ended a done time budget, for the "stopped
// early" lines: "time budget exhausted" for an expired deadline,
// "interrupted" for a signal.
func cutReason(ctx context.Context) string {
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		return "time budget exhausted"
	}
	return "interrupted"
}

// startProfiles begins the CPU profile when cpuPath is set. The
// returned stop ends it and, when memPath is set, writes a heap
// profile after a final GC.
func startProfiles(cpuPath, memPath string) (stop func(), err error) {
	var cpu *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
	}
	return func() {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			}
		}
		if memPath == "" {
			return
		}
		f, err := os.Create(memPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			return
		}
		runtime.GC() // report live heap, not transient garbage
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
		}
	}, nil
}

// startTelemetry builds the engine registry, opens the tracer and
// starts the progress reporter that the flags ask for. The returned
// stop flushes them: the final progress line, the closed trace file,
// then the -metrics summary. With no telemetry flag it starts nothing,
// and apply leaves the engine untouched.
func (s *session) startTelemetry() (stop func(), err error) {
	if s.progress == 0 && s.tracePath == "" && !s.metrics {
		return func() {}, nil
	}
	s.reg = telemetry.NewEngineRegistry()
	if s.tracePath != "" {
		if s.tracer, err = telemetry.OpenTracer(s.tracePath); err != nil {
			return nil, fmt.Errorf("trace: %w", err)
		}
	}
	var rep *telemetry.Reporter
	if s.progress > 0 {
		rep = telemetry.NewReporter(os.Stderr, s.progress, func() telemetry.Sample {
			return telemetry.Sample{
				Explored:   int64(s.reg.Total(telemetry.EngineAdmitted)),
				Terminated: int64(s.reg.Total(telemetry.EngineTerminated)),
				Frontier:   s.reg.GaugeValue(telemetry.EngineGaugeFrontier),
				Depth:      s.reg.GaugeValue(telemetry.EngineGaugeDepth),
			}
		})
		rep.Start()
	}
	return func() {
		rep.Stop()
		if err := s.tracer.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "trace: %v\n", err)
		}
		if s.metrics {
			fmt.Fprintln(os.Stderr, metricsLine(s.reg.Snapshot()))
		}
	}, nil
}

// metricsLine renders the -metrics summary: every counter, then every
// gauge, as name=value after a "metrics:" prefix.
func metricsLine(s telemetry.Snapshot) string {
	var b strings.Builder
	b.WriteString("metrics:")
	for i, name := range s.CounterNames {
		fmt.Fprintf(&b, " %s=%d", name, s.CounterVals[i])
	}
	for i, name := range s.GaugeNames {
		fmt.Fprintf(&b, " %s=%d", name, s.GaugeVals[i])
	}
	return b.String()
}

// progressFlag parses -progress as a bool-or-duration: the bare flag
// sets a 1s interval, -progress=250ms sets one explicitly.
type progressFlag struct{ interval *time.Duration }

func (p progressFlag) String() string {
	if p.interval == nil || *p.interval == 0 {
		return "false"
	}
	return p.interval.String()
}

func (p progressFlag) IsBoolFlag() bool { return true }

func (p progressFlag) Set(s string) error {
	switch strings.ToLower(s) {
	case "", "true":
		*p.interval = time.Second
		return nil
	case "false":
		*p.interval = 0
		return nil
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return fmt.Errorf("want a duration (e.g. 500ms) or nothing: %v", err)
	}
	if d <= 0 {
		return fmt.Errorf("interval must be positive")
	}
	*p.interval = d
	return nil
}
