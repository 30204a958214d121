package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/explore"
	"repro/internal/litmus"
)

// TestBudgetFlagParsing drives the registered flag set through the
// spellings the subcommands accept and checks what lands in the
// budget.
func TestBudgetFlagParsing(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want budget
		bad  bool
	}{
		{name: "defaults", args: nil, want: budget{}},
		{
			name: "all budgets",
			args: []string{"-timeout", "1500ms", "-max-states", "4096", "-max-mem", "256"},
			want: budget{timeout: 1500 * time.Millisecond, maxStates: 4096, maxMemMB: 256},
		},
		// The checkpoint/resume flags are retired: unknown flags now.
		{name: "checkpointing", args: []string{"-checkpoint", "s.ckpt", "-checkpoint-every", "2s"}, bad: true},
		{name: "resume", args: []string{"-resume", "old.ckpt"}, bad: true},
		{name: "bad duration", args: []string{"-timeout", "fast"}, bad: true},
		{name: "bad int", args: []string{"-max-states", "many"}, bad: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := flag.NewFlagSet("test", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			var s session
			s.register(fs, budgetFlags)
			err := fs.Parse(tc.args)
			if tc.bad {
				if err == nil {
					t.Fatalf("parse %v succeeded, want error", tc.args)
				}
				return
			}
			if err != nil {
				t.Fatalf("parse %v: %v", tc.args, err)
			}
			if s.budget != tc.want {
				t.Fatalf("parsed %v:\n got %+v\nwant %+v", tc.args, s.budget, tc.want)
			}
		})
	}
}

// TestBudgetValidate covers the post-parse consistency checks.
func TestBudgetValidate(t *testing.T) {
	cases := []struct {
		name string
		b    budget
		ok   bool
	}{
		{name: "zero budget", b: budget{}, ok: true},
		{name: "full budget", b: budget{timeout: time.Second, maxStates: 10, maxMemMB: 1}, ok: true},
		{name: "negative states", b: budget{maxStates: -1}, ok: false},
		{name: "negative memory", b: budget{maxMemMB: -5}, ok: false},
		{name: "negative timeout", b: budget{timeout: -time.Second}, ok: false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.b.validate()
			if (err == nil) != tc.ok {
				t.Fatalf("validate(%+v) = %v, want ok=%v", tc.b, err, tc.ok)
			}
		})
	}
}

// TestBudgetApply checks the translation of parsed budgets into engine
// options: zero values must leave engine defaults alone, non-zero
// values must land in the right Options fields with the right units,
// and the time budget reaches the engine only as the context start
// built — carrying the -timeout deadline when one was given.
func TestBudgetApply(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		name string
		b    budget
		// start calls b.start before apply; the applied context must
		// then be the one start returned.
		start bool
		in    explore.Options
		want  explore.Options
		// deadline is how far ahead the applied context's deadline
		// must lie (0 = it must carry none).
		deadline time.Duration
	}{
		{
			name: "zero budget preserves engine defaults",
			b:    budget{},
			in:   explore.Options{MaxEvents: 12, MaxConfigs: 999},
			want: explore.Options{MaxEvents: 12, MaxConfigs: 999},
		},
		{
			name: "state budget overrides the cap",
			b:    budget{maxStates: 50},
			in:   explore.Options{MaxConfigs: 999},
			want: explore.Options{MaxConfigs: 50},
		},
		{
			name: "memory budget converts MiB to bytes",
			b:    budget{maxMemMB: 3},
			want: explore.Options{MaxMemBytes: 3 << 20},
		},
		{
			name:     "timeout is copied through",
			b:        budget{timeout: 7 * time.Second},
			start:    true,
			deadline: 7 * time.Second,
		},
		{
			name:  "signal context is threaded",
			b:     budget{},
			start: true,
		},
		{
			name: "nil context leaves an existing one",
			b:    budget{},
			in:   explore.Options{Context: ctx},
			want: explore.Options{Context: ctx},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := session{budget: tc.b}
			got, want := tc.in, tc.want
			before := time.Now()
			if tc.start {
				var release context.CancelFunc
				s.ctx, release = s.budget.start()
				defer release()
				want.Context = s.ctx
			}
			s.apply(&got)
			if got.MaxConfigs != want.MaxConfigs ||
				got.MaxMemBytes != want.MaxMemBytes ||
				got.Context != want.Context ||
				got.MaxEvents != want.MaxEvents {
				t.Fatalf("apply(%+v) on %+v:\n got %+v\nwant %+v", tc.b, tc.in, got, want)
			}
			var dl time.Time
			hasDeadline := false
			if got.Context != nil {
				dl, hasDeadline = got.Context.Deadline()
			}
			switch {
			case tc.deadline == 0 && hasDeadline:
				t.Fatalf("applied context carries deadline %v without a -timeout", dl)
			case tc.deadline > 0 && !hasDeadline:
				t.Fatal("applied context carries no deadline for -timeout")
			case tc.deadline > 0 && (dl.Before(before.Add(tc.deadline)) || dl.After(time.Now().Add(tc.deadline))):
				t.Fatalf("deadline %v is not -timeout %v after start", dl, tc.deadline)
			}
		})
	}
}

// TestExitCode pins the verdict → exit-status convention the driver
// scripts and CI jobs rely on.
func TestExitCode(t *testing.T) {
	cases := []struct {
		name string
		res  explore.Result
		want int
	}{
		{name: "proved", res: explore.Result{Verdict: explore.VerdictProved}, want: exitProved},
		{name: "violated", res: explore.Result{Verdict: explore.VerdictViolated}, want: exitViolation},
		{name: "bounded", res: explore.Result{Verdict: explore.VerdictBounded}, want: exitBounded},
		{
			name: "violation outranks a budget stop",
			res:  explore.Result{Verdict: explore.VerdictViolated, Stop: explore.StopDeadline},
			want: exitViolation,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := exitCode(tc.res); got != tc.want {
				t.Fatalf("exitCode(%+v) = %d, want %d", tc.res, got, tc.want)
			}
		})
	}
}

// TestDescribe checks the one-line governance rendering subcommands
// append to their output (the strings the signal tests grep for).
func TestDescribe(t *testing.T) {
	cases := []struct {
		name     string
		res      explore.Result
		contains []string
		absent   []string
	}{
		{
			name:     "clean proof",
			res:      explore.Result{Verdict: explore.VerdictProved},
			contains: []string{"verdict=PROVED"},
			absent:   []string{"stop=", "frontier=", "isolated-panics="},
		},
		{
			name:     "cancelled cut",
			res:      explore.Result{Verdict: explore.VerdictBounded, Stop: explore.StopCancelled, Frontier: 17},
			contains: []string{"verdict=BOUNDED", "stop=cancelled", "frontier=17"},
		},
		{
			name: "degraded by panics",
			res: explore.Result{Verdict: explore.VerdictBounded, Stop: explore.StopMaxConfigs,
				Panics: []explore.PanicRecord{{}, {}}},
			contains: []string{"stop=max-configs", "isolated-panics=2"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := describe(tc.res)
			for _, want := range tc.contains {
				if !strings.Contains(got, want) {
					t.Errorf("describe(%+v) = %q, missing %q", tc.res, got, want)
				}
			}
			for _, bad := range tc.absent {
				if strings.Contains(got, bad) {
					t.Errorf("describe(%+v) = %q, unexpectedly contains %q", tc.res, got, bad)
				}
			}
		})
	}
}

// TestMetricsLineGauges: the -metrics summary carries every counter
// and then every gauge of the registry, in order, so a search's
// frontier_peak and seen_bytes are readable from any subcommand run.
func TestMetricsLineGauges(t *testing.T) {
	s := session{metrics: true}
	stop, err := s.startTelemetry()
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	opts := explore.Options{Workers: 1}
	s.apply(&opts)
	litmus.Suite()[0].Run(opts)

	snap := s.reg.Snapshot()
	line := metricsLine(snap)
	if !strings.HasPrefix(line, "metrics: expansions=") {
		t.Fatalf("summary does not start with the first counter: %q", line)
	}
	fields := strings.Fields(strings.TrimPrefix(line, "metrics:"))
	names := append(append([]string(nil), snap.CounterNames...), snap.GaugeNames...)
	if len(fields) != len(names) {
		t.Fatalf("summary has %d fields, want %d counters and gauges: %q", len(fields), len(names), line)
	}
	for i, name := range names {
		if !strings.HasPrefix(fields[i], name+"=") {
			t.Fatalf("field %d is %q, want %s=…", i, fields[i], name)
		}
	}
	for _, g := range []string{"frontier_peak", "seen_bytes"} {
		v := snap.Gauge(g)
		if v <= 0 {
			t.Errorf("gauge %s = %d after a search, want > 0", g, v)
		}
		if want := fmt.Sprintf(" %s=%d", g, v); !strings.Contains(line, want) {
			t.Errorf("summary lacks %q: %q", want, line)
		}
	}
}
