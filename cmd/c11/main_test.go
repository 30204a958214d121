package main

import (
	"os"
	"testing"
)

// TestSubcommandExitCodes drives the dispatcher in-process and pins
// each subcommand's exit code: the shared convention (0 proved, 1
// violation, 2 bounded, 3 usage or internal error) must hold through
// every subcommand's return path.
func TestSubcommandExitCodes(t *testing.T) {
	cases := []struct {
		args []string
		want int
	}{
		{[]string{"verify", "-max", "8", "-workers", "1"}, exitProved},
		{[]string{"verify", "-variant", "weak-turn", "-max", "40", "-por=false", "-workers", "1"}, exitViolation},
		{[]string{"verify", "-variant", "strong"}, exitInternal},
		{[]string{"explore", "-f", "../../testdata/peterson.lit", "-max", "12", "-max-states", "50"}, exitBounded},
		{[]string{"explore", "-f", "../../testdata/sb.lit", "-diff"}, exitInternal},
		{[]string{"explore", "-f", "../../testdata/na-mp.lit", "-races", "-max", "12"}, exitProved},
		{[]string{"explore", "-example", "3.2"}, exitProved},
		{[]string{"explore", "-f", "../../testdata/sb.lit", "-max", "9", "-audit"}, exitProved},
		{[]string{"verify", "-model", "sc", "-audit"}, exitProved},
		{[]string{"explore", "-f", "../../testdata/peterson.lit", "-max", "320", "-audit", "-timeout", "50ms"}, exitBounded},
		// -checkpoint is retired: an unknown flag on every subcommand.
		{[]string{"verify", "-max", "8", "-audit", "-checkpoint", "x"}, exitInternal},
		{[]string{"explore", "-f", "../../testdata/sb.lit", "-checkpor"}, exitInternal},
		// -checkincremental is retired: -audit runs the incremental audit.
		{[]string{"verify", "-max", "8", "-checkincremental"}, exitInternal},
		{[]string{"explore", "-f", "../../testdata/sb.lit", "-checkincremental"}, exitInternal},
		{[]string{"explore"}, exitInternal},
		{[]string{"litmus", "-run", "SB", "-model", "all"}, exitProved},
		{[]string{"litmus", "-f", "../../testdata/sb.lit", "-model", "all"}, exitProved},
		{[]string{"litmus", "-checkpoint", "x"}, exitInternal},
		{[]string{"equiv", "-events", "2", "-random", "10", "-seed", "1"}, exitProved},
		{[]string{"equiv", "-diff"}, exitInternal},
		{[]string{"fuzz", "-seed", "1", "-n", "2", "-corpus", t.TempDir()}, exitProved},
		{[]string{"fuzz", "-budget", "1s"}, exitInternal},
		// trace is retired: -trace writes Chrome trace_event JSON itself.
		{[]string{"trace"}, exitInternal},
		// -max-mem is retired: -max-states is the one memory bound.
		{[]string{"verify", "-max", "8", "-max-mem", "64"}, exitInternal},
		{[]string{"explore", "-f", "../../testdata/sb.lit", "-max-mem", "64"}, exitInternal},
		{[]string{"litmus", "-run", "SB", "-max-mem", "64"}, exitInternal},
		{[]string{"frobnicate"}, exitInternal},
		{nil, exitInternal},
		{[]string{"help"}, exitProved},
		{[]string{"litmus", "-h"}, exitProved},
	}
	// The subcommands print their reports; keep them out of the test log.
	devNull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devNull.Close()
	stdout, stderr := os.Stdout, os.Stderr
	os.Stdout, os.Stderr = devNull, devNull
	defer func() { os.Stdout, os.Stderr = stdout, stderr }()
	for _, tc := range cases {
		if got := run(tc.args); got != tc.want {
			t.Errorf("c11 %v exited %d, want %d", tc.args, got, tc.want)
		}
	}
}
