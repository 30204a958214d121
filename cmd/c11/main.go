// Command c11 is the checker's command line. Its subcommands run
// programs under the paper's operational semantics, compare it with
// the axiomatic model, and check the Peterson proof (§5.2):
//
//	c11 verify   machine-check the Peterson verification: invariants
//	             (4)-(10), Theorem 5.8, and the weakened variants
//	c11 explore  explore one program's bounded state space under a
//	             memory model; render executions, find data races
//	c11 litmus   run the litmus catalog and the data-structure tier
//	             (or one .lit file) against per-model expectations;
//	             -model all also prints the RA-only outcomes and
//	             checks SC ⊆ RA on every test
//	c11 equiv    check Definition 4.2 against Definition C.3 over
//	             enumerated candidate executions (Theorem C.5)
//	c11 fuzz     differentially fuzz the backends with generated
//	             programs, or replay a corpus of reproducers
//
// Examples:
//
//	c11 verify -max 14 -variant weak-turn
//	c11 litmus -f testdata/sb.lit -model all
//	c11 litmus -model all
//	c11 equiv -events 4 -vars 2
//	c11 fuzz -seed 1 -n 500
//	c11 explore -f testdata/sb.lit -trace search.json
//
// Every subcommand shares one startup and one exit path: the flags
// are parsed, the profile and the telemetry the flags ask for are
// started, the subcommand runs and returns its exit code, telemetry
// and then profiles are flushed, and only then does the process exit.
// The exit codes are the same for every subcommand (exitCodesDoc).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
)

// Exit codes shared by every subcommand. The distinction between 1
// and 2 is the tri-state verdict: 1 means a definite finding (a
// property violation, an expectation failure, a refinement breach), 2
// means the run was cut by a resource budget or degraded by isolated
// panics before it could conclude, and 3 means the tool itself failed
// (bad flags, unreadable input, I/O errors).
const (
	exitProved    = 0
	exitViolation = 1
	exitBounded   = 2
	exitInternal  = 3
)

const exitCodesDoc = `
Exit codes:
  0  proved / all checks passed
  1  violation or definite failure found
  2  search cut by a resource budget or degraded by isolated panics (inconclusive)
  3  usage or internal error
`

// command is one subcommand. setup registers the subcommand's own
// flags on fs and returns its body, which runs after parsing and
// returns the exit code.
type command struct {
	name    string
	summary string
	shared  shared // the shared flag groups that act in this subcommand
	setup   func(fs *flag.FlagSet, s *session) func() int
}

var commands = []command{
	{"verify", "Machine-checks the paper's Peterson verification (invariants (4)-(10), Theorem 5.8).",
		statesFlag | profileFlags | telemetryFlags, verifyCmd},
	{"explore", "Explores the bounded state space of a program under a pluggable memory model.",
		statesFlag | profileFlags | telemetryFlags, exploreCmd},
	{"litmus", "Runs weak-memory litmus tests under a pluggable memory model.\nThe .lit file grammar accepted by -f is documented in docs/litmus-format.md\n(one worked example per file under testdata/).",
		statesFlag | profileFlags | telemetryFlags, litmusCmd},
	{"equiv", "Checks Theorem C.5: Definitions 4.2 and C.3 agree on enumerated candidate executions.",
		profileFlags, equivCmd},
	{"fuzz", "Differentially fuzzes the memory-model backends with generated litmus programs.\nAny failure is shrunk into a corpus reproducer.",
		statesFlag | profileFlags | telemetryFlags, fuzzCmd},
}

func main() {
	os.Exit(run(os.Args[1:]))
}

// run dispatches one command line and returns its exit code. It is
// the whole program but the os.Exit, so tests call it directly.
func run(args []string) int {
	if len(args) == 0 {
		usage(os.Stderr)
		return exitInternal
	}
	var cmd *command
	for i := range commands {
		if commands[i].name == args[0] {
			cmd = &commands[i]
		}
	}
	if cmd == nil {
		switch args[0] {
		case "-h", "-help", "--help", "help":
			usage(os.Stdout)
			return exitProved
		}
		fmt.Fprintf(os.Stderr, "c11: unknown command %q\n", args[0])
		usage(os.Stderr)
		return exitInternal
	}

	// A bad flag exits with exitInternal instead of the flag package's
	// default status 2, which stays reserved for budget-cut runs.
	fs := flag.NewFlagSet("c11 "+cmd.name, flag.ContinueOnError)
	var s session
	s.register(fs, cmd.shared)
	body := cmd.setup(fs, &s)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "Usage: c11 %s [flags]\n\n%s\n\nFlags:\n", cmd.name, cmd.summary)
		fs.PrintDefaults()
		fmt.Fprint(fs.Output(), exitCodesDoc)
	}
	switch err := fs.Parse(args[1:]); err {
	case nil:
	case flag.ErrHelp:
		return exitProved
	default:
		return exitInternal
	}
	if err := s.budget.validate(); err != nil {
		return fail(err)
	}

	stopProfiles, err := startProfiles(s.cpuProfile, s.memProfile)
	if err != nil {
		return fail(err)
	}
	defer stopProfiles()
	stopTelemetry, err := s.startTelemetry()
	if err != nil {
		return fail(err)
	}
	defer stopTelemetry()
	var release context.CancelFunc
	s.ctx, release = s.budget.start()
	defer release()
	return body()
}

func usage(w io.Writer) {
	fmt.Fprint(w, "Usage: c11 <command> [flags]\n\nCommands:\n")
	for _, c := range commands {
		summary, _, _ := strings.Cut(c.summary, "\n")
		fmt.Fprintf(w, "  %-8s %s\n", c.name, summary)
	}
	fmt.Fprint(w, "\nRun 'c11 <command> -h' for a command's flags.\n", exitCodesDoc)
}

// fail reports an internal error and returns exitInternal.
func fail(err error) int {
	fmt.Fprintln(os.Stderr, "c11:", err)
	return exitInternal
}
