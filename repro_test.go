package repro

// End-to-end integration tests: every shipped litmus file parses, runs
// and meets its expectations; the Peterson file round-trips through
// the parser into the verifier; and the whole pipeline (text → AST →
// interpreted semantics → explorer → axioms) composes.

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/axiomatic"
	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/litmus"
	"repro/internal/model"
	"repro/internal/parser"
	"repro/internal/proof"
	"repro/internal/races"
)

func parseFile(t *testing.T, name string) *parser.File {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	f, err := parser.Parse(name, string(src))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestTestdataLitmusFiles(t *testing.T) {
	entries, err := os.ReadDir("testdata")
	if err != nil {
		t.Fatal(err)
	}
	ran := 0
	for _, ent := range entries {
		if !strings.HasSuffix(ent.Name(), ".lit") || ent.Name() == "peterson.lit" {
			continue
		}
		name := ent.Name()
		t.Run(name, func(t *testing.T) {
			f := parseFile(t, name)
			tc, err := f.Test()
			if err != nil {
				t.Fatal(err)
			}
			if len(tc.Allowed)+len(tc.Forbidden) == 0 {
				t.Fatalf("%s has no expectations", name)
			}
			rep := tc.Run(explore.Options{MaxEvents: 16})
			if !rep.Pass() {
				t.Fatalf("%s failed: %s", name, rep.Summary())
			}
		})
		ran++
	}
	if ran < 4 {
		t.Fatalf("only %d litmus files ran", ran)
	}
}

func TestTestdataPetersonVerifies(t *testing.T) {
	f := parseFile(t, "peterson.lit")
	prog, err := f.Prog()
	if err != nil {
		t.Fatal(err)
	}
	// The parsed program matches the built-in Algorithm 1.
	builtin, vars := litmus.Peterson()
	if prog.String() != builtin.String() {
		t.Fatalf("parsed Peterson differs:\n%s\n%s", prog, builtin)
	}
	res := explore.Run(core.NewConfig(prog, vars), explore.Options{
		MaxEvents: 10,
		Property: func(c model.Config) bool {
			cc := c.(core.Config)
			return len(proof.CheckPetersonInvariants(cc)) == 0 && proof.Theorem58(cc)
		},
	})
	if res.Violation != nil {
		t.Fatal("parsed Peterson fails verification")
	}
}

func TestTestdataNAMPIsRaceFree(t *testing.T) {
	f := parseFile(t, "na-mp.lit")
	prog, err := f.Prog()
	if err != nil {
		t.Fatal(err)
	}
	free, _ := races.RaceFree(core.NewConfig(prog, f.Init), explore.Options{MaxEvents: 14})
	if !free {
		t.Fatal("na-mp.lit reported racy despite release/acquire flag")
	}
}

// The full pipeline agrees with itself: the parsed MP file's outcome
// set equals the axiomatic one.
func TestPipelineCrossCheck(t *testing.T) {
	f := parseFile(t, "mp.lit")
	prog, err := f.Prog()
	if err != nil {
		t.Fatal(err)
	}
	op, res := axiomatic.OperationalExecutions(prog, f.Init, explore.Options{MaxEvents: 40})
	if res.Verdict != explore.VerdictProved || res.Truncated {
		t.Fatalf("operational search incomplete: verdict=%s truncated=%v", res.Verdict, res.Truncated)
	}
	ax := axiomatic.ValidExecutions(prog, f.Init, 40)
	if len(op) == 0 || len(op) != len(ax) {
		t.Fatalf("|op|=%d |ax|=%d", len(op), len(ax))
	}
	for sig := range op {
		if _, ok := ax[sig]; !ok {
			t.Fatalf("divergent execution:\n%s", sig)
		}
	}
}
