package cli

// Telemetry is the shared observability flag set of the frontends:
// -progress[=interval] prints live search progress to stderr, -trace
// writes the structured JSONL search trace (convert with c11trace),
// and -metrics prints a final summary of the engine counters and
// gauges. Like profiles, the active telemetry is flushed by Exit on
// every exit path — a SIGINT-cut run (exit 2) still gets its final
// progress line and a complete, parseable trace file.

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/explore"
	"repro/internal/telemetry"
)

// Telemetry carries the observability flags and the live telemetry
// objects of one frontend run.
type Telemetry struct {
	// ProgressInterval is the -progress reporting interval; zero
	// disables the reporter. The bare flag form (-progress) means one
	// second.
	ProgressInterval time.Duration
	// TracePath is the -trace output path for the JSONL search trace.
	TracePath string
	// Summary enables the -metrics final counter and gauge dump to
	// stderr.
	Summary bool

	reg      *telemetry.Registry
	tracer   *telemetry.Tracer
	reporter *telemetry.Reporter
}

// activeTelemetry is what Exit flushes: frontends exit through
// Exit/Fatal on every path, and an unflushed tracer would leave a
// truncated file.
var activeTelemetry *Telemetry

// Register installs the telemetry flags on fs.
func (t *Telemetry) Register(fs *flag.FlagSet) {
	fs.Var(progressFlag{t}, "progress",
		"print live search progress to stderr every second; -progress=500ms sets the interval")
	fs.StringVar(&t.TracePath, "trace", "",
		"write a JSONL search trace (worker lifecycle, expansion batches, budget events) to this path; convert with c11trace")
	fs.BoolVar(&t.Summary, "metrics", false,
		"print the final engine metric counters and gauges to stderr when the run ends")
}

// progressFlag parses -progress as a bool-or-duration: the bare flag
// enables a 1s interval, -progress=250ms sets one explicitly.
type progressFlag struct{ t *Telemetry }

func (p progressFlag) String() string {
	if p.t == nil || p.t.ProgressInterval == 0 {
		return "false"
	}
	return p.t.ProgressInterval.String()
}

func (p progressFlag) IsBoolFlag() bool { return true }

func (p progressFlag) Set(s string) error {
	switch strings.ToLower(s) {
	case "", "true":
		p.t.ProgressInterval = time.Second
		return nil
	case "false":
		p.t.ProgressInterval = 0
		return nil
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return fmt.Errorf("want a duration (e.g. 500ms) or nothing: %v", err)
	}
	if d <= 0 {
		return fmt.Errorf("interval must be positive")
	}
	p.t.ProgressInterval = d
	return nil
}

// Enabled reports whether any telemetry flag was set.
func (t *Telemetry) Enabled() bool {
	return t.ProgressInterval > 0 || t.TracePath != "" || t.Summary
}

// Start builds the registry, opens the tracer and launches the
// progress reporter according to the flags, and records t as the
// process's active telemetry so Exit flushes it on every exit path.
// Call once after flag parsing, before Apply; pair with a deferred
// Stop for the normal return path. A run with no telemetry flags
// starts nothing (and Apply then leaves the engine untouched).
func (t *Telemetry) Start() error {
	if !t.Enabled() {
		return nil
	}
	t.reg = telemetry.NewEngineRegistry()
	if t.TracePath != "" {
		tr, err := telemetry.OpenTracer(t.TracePath)
		if err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		t.tracer = tr
	}
	if t.ProgressInterval > 0 {
		t.reporter = telemetry.NewReporter(os.Stderr, t.ProgressInterval, t.sample)
		t.reporter.Start()
	}
	activeTelemetry = t
	return nil
}

func (t *Telemetry) sample() telemetry.Sample {
	return telemetry.Sample{
		Explored:   int64(t.reg.Total(telemetry.EngineAdmitted)),
		Terminated: int64(t.reg.Total(telemetry.EngineTerminated)),
		Frontier:   t.reg.GaugeValue(telemetry.EngineGaugeFrontier),
		Depth:      t.reg.GaugeValue(telemetry.EngineGaugeDepth),
	}
}

// Apply threads the telemetry sinks into engine options. Tools that
// run many searches (c11litmus, c11fuzz) apply the same Telemetry to
// each; the registry accumulates across them.
func (t *Telemetry) Apply(o *explore.Options) {
	if t.reg != nil {
		o.Metrics = t.reg
	}
	if t.tracer != nil {
		o.Tracer = t.tracer
	}
}

// Registry exposes the engine registry (nil when telemetry is off).
func (t *Telemetry) Registry() *telemetry.Registry { return t.reg }

// Tracer exposes the search tracer (nil when -trace is off).
func (t *Telemetry) Tracer() *telemetry.Tracer { return t.tracer }

// Stop flushes everything: the reporter prints its final progress
// line, the tracer is flushed and closed, and -metrics prints the
// counter and gauge summary. Idempotent — a deferred Stop after an
// Exit-flushed one does nothing.
func (t *Telemetry) Stop() {
	t.reporter.Stop()
	if t.tracer != nil {
		if err := t.tracer.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "trace: %v\n", err)
		}
		t.tracer = nil
	}
	if t.Summary && t.reg != nil {
		t.Summary = false
		fmt.Fprintln(os.Stderr, metricsLine(t.reg.Snapshot()))
	}
	if activeTelemetry == t {
		activeTelemetry = nil
	}
}

// metricsLine renders the -metrics summary: every counter, then every
// gauge, in schema order, as name=value after a "metrics:" prefix.
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
