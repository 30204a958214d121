// Package cli is the shared command-line plumbing of the five
// frontends: the resource-budget flag set (wall clock, states, memory,
// checkpoint/resume), the common exit-code convention, and the
// formatting of engine results. Keeping it in one place makes the
// tools behave identically: the same flag spells the same budget
// everywhere, and an exit status means the same thing whichever binary
// produced it.
package cli

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/explore"
	"repro/internal/model"
)

// Exit codes shared by every frontend. The distinction between 1 and
// 2 is the tri-state verdict: 1 means a definite finding (a property
// violation, an expectation failure, a refinement breach), 2 means the
// run was cut by a resource budget or degraded by isolated panics
// before it could conclude, and 3 means the tool itself failed (bad
// flags, unreadable input, I/O errors).
const (
	// ExitProved: the run concluded and found nothing wrong.
	ExitProved = 0
	// ExitViolation: the run concluded with a definite finding.
	ExitViolation = 1
	// ExitBounded: a budget cut or degradation left the run
	// inconclusive.
	ExitBounded = 2
	// ExitInternal: usage or tool error; nothing was concluded.
	ExitInternal = 3
)

// ExitCodesDoc is appended to every frontend's -h output.
const ExitCodesDoc = `
Exit codes:
  0  proved / all checks passed
  1  violation or definite failure found
  2  search cut by a resource budget or degraded by isolated panics (inconclusive)
  3  usage or internal error
`

// ExitCode maps an exploration result to the shared convention.
func ExitCode(res explore.Result) int {
	switch res.Verdict {
	case explore.VerdictViolated:
		return ExitViolation
	case explore.VerdictBounded:
		return ExitBounded
	default:
		return ExitProved
	}
}

// Budget is the shared resource-governance flag set.
type Budget struct {
	// Timeout bounds the wall clock of the whole invocation — every
	// engine search the tool runs shares one deadline (0 = none).
	Timeout time.Duration
	// MaxStates bounds distinct configurations per search (0 = engine
	// default).
	MaxStates int
	// MaxMemMB bounds the process heap in MiB, polled (0 = none).
	MaxMemMB int
	// Checkpoint is the path the engine snapshots the search to.
	Checkpoint string
	// CheckpointEvery is the periodic snapshot interval (0 = only a
	// final snapshot).
	CheckpointEvery time.Duration
	// Resume is a checkpoint path to continue from instead of starting
	// fresh.
	Resume string

	// ctx is the invocation's time budget, built by Start.
	ctx context.Context
}

// Register installs the budget flags on fs (use flag.CommandLine for
// the default set).
func (b *Budget) Register(fs *flag.FlagSet) {
	fs.DurationVar(&b.Timeout, "timeout", 0,
		"wall-clock budget for the whole invocation; past it every search stops with a sound partial result (0 = none)")
	fs.IntVar(&b.MaxStates, "max-states", 0,
		"state budget per search: distinct configurations admitted (0 = engine default)")
	fs.IntVar(&b.MaxMemMB, "max-mem", 0,
		"memory budget in MiB: the search stops when the polled heap exceeds it (0 = none)")
	fs.StringVar(&b.Checkpoint, "checkpoint", "",
		"write a resumable snapshot of the search (seen-set + frontier) to this path")
	fs.DurationVar(&b.CheckpointEvery, "checkpoint-every", 0,
		"also snapshot periodically at this interval (needs -checkpoint)")
	fs.StringVar(&b.Resume, "resume", "",
		"continue a checkpointed search from this path instead of starting fresh")
}

// Validate checks flag consistency; call after flag parsing.
func (b *Budget) Validate() error {
	if err := explore.CheckpointInterval(b.Checkpoint, b.CheckpointEvery); err != nil {
		return fmt.Errorf("-checkpoint-every: %w", err)
	}
	if b.MaxStates < 0 || b.MaxMemMB < 0 || b.Timeout < 0 || b.CheckpointEvery < 0 {
		return fmt.Errorf("budget flags must be non-negative")
	}
	return nil
}

// Start builds the invocation's one time budget: a context cancelled
// on SIGINT or SIGTERM and, when -timeout is positive, at the deadline
// that far from now. It returns the context — for the tool's own loops
// to poll — and the function releasing it. Apply threads the context
// into every search, where the engine reports the deadline as
// StopDeadline and a signal as StopCancelled. Call Start once, after
// flag parsing.
func (b *Budget) Start() (context.Context, context.CancelFunc) {
	ctx, stopSignals := SignalContext(context.Background())
	release := stopSignals
	if b.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, b.Timeout)
		release = func() { cancel(); stopSignals() }
	}
	b.ctx = ctx
	return ctx, release
}

// Apply folds the budget into engine options. Before Start it leaves
// o.Context as it is.
func (b *Budget) Apply(o *explore.Options) {
	if b.ctx != nil {
		o.Context = b.ctx
	}
	if b.MaxStates > 0 {
		o.MaxConfigs = b.MaxStates
	}
	if b.MaxMemMB > 0 {
		o.MaxMemBytes = uint64(b.MaxMemMB) << 20
	}
	o.CheckpointPath = b.Checkpoint
	o.CheckpointEvery = b.CheckpointEvery
}

// Execute runs root under opts with the budget applied — or, when
// -resume was given, continues the checkpointed search instead (root
// may then be nil). The returned error is an internal failure
// (ExitInternal); budget cuts are reported through the Result verdict.
func (b *Budget) Execute(m model.Model, root model.Config, opts explore.Options) (explore.Result, error) {
	b.Apply(&opts)
	if b.Resume != "" {
		res, err := explore.Resume(b.Resume, m, opts)
		if err != nil {
			return res, fmt.Errorf("resume %s: %w", b.Resume, err)
		}
		return res, nil
	}
	res := explore.Run(root, opts)
	if res.CheckpointErr != nil {
		return res, fmt.Errorf("checkpoint: %w", res.CheckpointErr)
	}
	return res, nil
}

// Describe renders the governance part of a result in one line:
// verdict, stop cause, coverage. Frontends print it after their own
// statistics so partial results are always visibly partial.
func Describe(res explore.Result) string {
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

// Usage wraps a FlagSet's default usage with a header line and the
// exit-code table.
func Usage(fs *flag.FlagSet, header string) func() {
	return func() {
		fmt.Fprintf(fs.Output(), "%s\n\nFlags:\n", header)
		fs.PrintDefaults()
		fmt.Fprint(fs.Output(), ExitCodesDoc)
	}
}

// Parse parses the process command line like flag.Parse, except that a
// bad flag exits with ExitInternal instead of the flag package's
// default status 2 — keeping 2 reserved for budget-cut runs. -h still
// exits 0.
func Parse() {
	flag.CommandLine.Init(os.Args[0], flag.ContinueOnError)
	switch err := flag.CommandLine.Parse(os.Args[1:]); err {
	case nil:
	case flag.ErrHelp:
		os.Exit(ExitProved)
	default:
		os.Exit(ExitInternal)
	}
}

// Fatal reports an internal error and exits with ExitInternal,
// flushing any active profiles on the way out.
func Fatal(tool string, err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", tool, err)
	Exit(ExitInternal)
}

// Fatalf is Fatal with formatting.
func Fatalf(tool, format string, args ...any) {
	Fatal(tool, fmt.Errorf(format, args...))
}
