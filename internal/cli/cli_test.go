package cli_test

import (
	"context"
	"flag"
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/cli"
	"repro/internal/explore"
)

// TestBudgetFlagParsing drives the registered flag set through the
// spellings the frontends accept and checks what lands in the Budget.
func TestBudgetFlagParsing(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want cli.Budget
		bad  bool
	}{
		{name: "defaults", args: nil, want: cli.Budget{}},
		{
			name: "all budgets",
			args: []string{"-timeout", "1500ms", "-max-states", "4096", "-max-mem", "256"},
			want: cli.Budget{Timeout: 1500 * time.Millisecond, MaxStates: 4096, MaxMemMB: 256},
		},
		{
			name: "checkpointing",
			args: []string{"-checkpoint", "s.ckpt", "-checkpoint-every", "2s"},
			want: cli.Budget{Checkpoint: "s.ckpt", CheckpointEvery: 2 * time.Second},
		},
		{
			name: "resume",
			args: []string{"-resume", "old.ckpt"},
			want: cli.Budget{Resume: "old.ckpt"},
		},
		{name: "bad duration", args: []string{"-timeout", "fast"}, bad: true},
		{name: "bad int", args: []string{"-max-states", "many"}, bad: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := flag.NewFlagSet("test", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			var b cli.Budget
			b.Register(fs)
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
			if b != tc.want {
				t.Fatalf("parsed %v:\n got %+v\nwant %+v", tc.args, b, tc.want)
			}
		})
	}
}

// TestBudgetValidate covers the post-parse consistency checks.
func TestBudgetValidate(t *testing.T) {
	cases := []struct {
		name string
		b    cli.Budget
		ok   bool
	}{
		{name: "zero budget", b: cli.Budget{}, ok: true},
		{name: "full budget", b: cli.Budget{Timeout: time.Second, MaxStates: 10, MaxMemMB: 1}, ok: true},
		{name: "periodic with path", b: cli.Budget{Checkpoint: "a.ckpt", CheckpointEvery: time.Second}, ok: true},
		{name: "periodic without path", b: cli.Budget{CheckpointEvery: time.Second}, ok: false},
		{name: "negative states", b: cli.Budget{MaxStates: -1}, ok: false},
		{name: "negative memory", b: cli.Budget{MaxMemMB: -5}, ok: false},
		{name: "negative timeout", b: cli.Budget{Timeout: -time.Second}, ok: false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.b.Validate()
			if (err == nil) != tc.ok {
				t.Fatalf("Validate(%+v) = %v, want ok=%v", tc.b, err, tc.ok)
			}
		})
	}
}

// TestBudgetApply checks the translation of parsed budgets into engine
// options: zero values must leave engine defaults alone, non-zero
// values must land in the right Options fields with the right units,
// and the time budget reaches the engine only as the context Start
// built — carrying the -timeout deadline when one was given.
func TestBudgetApply(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		name string
		b    cli.Budget
		// start calls b.Start before Apply; the applied context must
		// then be the one Start returned.
		start bool
		in    explore.Options
		want  explore.Options
		// deadline is how far ahead the applied context's deadline
		// must lie (0 = it must carry none).
		deadline time.Duration
	}{
		{
			name: "zero budget preserves engine defaults",
			b:    cli.Budget{},
			in:   explore.Options{MaxEvents: 12, MaxConfigs: 999},
			want: explore.Options{MaxEvents: 12, MaxConfigs: 999},
		},
		{
			name: "state budget overrides the cap",
			b:    cli.Budget{MaxStates: 50},
			in:   explore.Options{MaxConfigs: 999},
			want: explore.Options{MaxConfigs: 50},
		},
		{
			name: "memory budget converts MiB to bytes",
			b:    cli.Budget{MaxMemMB: 3},
			want: explore.Options{MaxMemBytes: 3 << 20},
		},
		{
			name:     "timeout is copied through",
			b:        cli.Budget{Timeout: 7 * time.Second},
			start:    true,
			deadline: 7 * time.Second,
		},
		{
			name: "checkpoint path and interval",
			b:    cli.Budget{Checkpoint: "x.ckpt", CheckpointEvery: time.Minute},
			want: explore.Options{CheckpointPath: "x.ckpt", CheckpointEvery: time.Minute},
		},
		{
			name:  "signal context is threaded",
			b:     cli.Budget{},
			start: true,
		},
		{
			name: "nil context leaves an existing one",
			b:    cli.Budget{},
			in:   explore.Options{Context: ctx},
			want: explore.Options{Context: ctx},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, want := tc.in, tc.want
			before := time.Now()
			if tc.start {
				started, release := tc.b.Start()
				defer release()
				want.Context = started
			}
			tc.b.Apply(&got)
			if got.MaxConfigs != want.MaxConfigs ||
				got.MaxMemBytes != want.MaxMemBytes ||
				got.CheckpointPath != want.CheckpointPath ||
				got.CheckpointEvery != want.CheckpointEvery ||
				got.Context != want.Context ||
				got.MaxEvents != want.MaxEvents {
				t.Fatalf("Apply(%+v) on %+v:\n got %+v\nwant %+v", tc.b, tc.in, got, want)
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
				t.Fatalf("deadline %v is not -timeout %v after Start", dl, tc.deadline)
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
		{name: "proved", res: explore.Result{Verdict: explore.VerdictProved}, want: cli.ExitProved},
		{name: "violated", res: explore.Result{Verdict: explore.VerdictViolated}, want: cli.ExitViolation},
		{name: "bounded", res: explore.Result{Verdict: explore.VerdictBounded}, want: cli.ExitBounded},
		{
			name: "violation outranks a budget stop",
			res:  explore.Result{Verdict: explore.VerdictViolated, Stop: explore.StopDeadline},
			want: cli.ExitViolation,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := cli.ExitCode(tc.res); got != tc.want {
				t.Fatalf("ExitCode(%+v) = %d, want %d", tc.res, got, tc.want)
			}
		})
	}
}

// TestDescribe checks the one-line governance rendering frontends
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
			got := cli.Describe(tc.res)
			for _, want := range tc.contains {
				if !strings.Contains(got, want) {
					t.Errorf("Describe(%+v) = %q, missing %q", tc.res, got, want)
				}
			}
			for _, bad := range tc.absent {
				if strings.Contains(got, bad) {
					t.Errorf("Describe(%+v) = %q, unexpectedly contains %q", tc.res, got, bad)
				}
			}
		})
	}
}
