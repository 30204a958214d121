package ds

import (
	"bytes"
	"flag"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/explore"
	"repro/internal/lang"
	"repro/internal/litmus"
	"repro/internal/model"
	"repro/internal/parser"
	"repro/internal/proof"
	"repro/internal/sc"
)

var update = flag.Bool("update", false, "rewrite testdata/ds from the scenario suite")

const litDir = "../../testdata/ds"

func models() []model.Model { return []model.Model{core.Model, sc.Model} }

func runOpts() explore.Options {
	return explore.Options{POR: true, Workers: 4}
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestDumpOutcomes prints every scenario's reachable outcome set per
// model — the calibration tool that produced the committed allow
// lines. Skipped unless DS_DUMP is set.
func TestDumpOutcomes(t *testing.T) {
	if os.Getenv("DS_DUMP") == "" {
		t.Skip("set DS_DUMP=1 to dump reachable outcome sets")
	}
	for _, s := range Suite() {
		for _, m := range models() {
			rep := s.Test.RunModel(m, runOpts())
			t.Logf("%s/%s explored=%d truncated=%v outcomes=%v",
				s.Test.Name, m.Name(), rep.Explored, rep.Truncated, sortedKeys(rep.Outcomes))
		}
	}
}

// TestScenarioExpectations is the linearizability tier proper: under
// both backends every scenario passes its catalog expectations, the
// outcome properties hold over the reachable set, and under RAR the
// allow lines pin the reachable outcome set *exactly* (the regression
// pin — any semantics change that adds or removes a behaviour at the
// scenario bound trips it). The SC allow lines are checked for
// exactness too: the suite's SC sets are total by construction.
func TestScenarioExpectations(t *testing.T) {
	for _, s := range Suite() {
		s := s
		t.Run(s.Test.Name, func(t *testing.T) {
			t.Parallel()
			for _, m := range models() {
				rep := s.Test.RunModel(m, runOpts())
				if !rep.Pass() {
					t.Errorf("%s: missing allowed %v, reached forbidden %v",
						m.Name(), rep.MissingAllowed, rep.ReachedForbidden)
				}
				if v := s.CheckProps(rep.Outcomes); len(v) != 0 {
					t.Errorf("%s: property violations: %v", m.Name(), v)
				}
				allowed, _ := s.Test.Expectations(m.Name())
				want := map[string]bool{}
				for _, o := range allowed {
					want[o.Key(s.Test.Observe)] = true
				}
				for k := range rep.Outcomes {
					if !want[k] {
						t.Errorf("%s: reachable outcome %s not in the allow pin", m.Name(), k)
					}
				}
			}
		})
	}
}

// TestMutexLabels drives the exploration-time mutual-exclusion check
// for scenarios that declare a protected label: no reachable
// configuration of either backend has two clients inside it.
func TestMutexLabels(t *testing.T) {
	checked := 0
	for _, s := range Suite() {
		if s.MutexLabel == "" {
			continue
		}
		checked++
		threads := proof.ClientThreads(len(s.Test.Prog))
		for _, m := range models() {
			opts := runOpts()
			opts.MaxEvents = s.Test.MaxEvents
			opts.Property = proof.MutexAtLabel(s.MutexLabel, threads...)
			res := explore.Run(m.New(s.Test.Prog, s.Test.Init), opts)
			if res.Violation != nil {
				t.Errorf("%s/%s: mutual exclusion at %q violated: %v",
					s.Test.Name, m.Name(), s.MutexLabel, res.Violation.Program())
			}
		}
	}
	if checked == 0 {
		t.Fatal("no scenario declares a mutex label")
	}
}

// TestFilesInSync pins testdata/ds to the builder output: the .lit
// files on disk are exactly what the suite renders. Run with -update
// to regenerate.
func TestFilesInSync(t *testing.T) {
	want := map[string]string{}
	for _, s := range Suite() {
		want[s.Test.Name+".lit"] = s.Lit()
	}
	if *update {
		if err := os.MkdirAll(litDir, 0o755); err != nil {
			t.Fatal(err)
		}
		for name, src := range want {
			if err := os.WriteFile(filepath.Join(litDir, name), []byte(src), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	onDisk, err := filepath.Glob(filepath.Join(litDir, "*.lit"))
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, path := range onDisk {
		name := filepath.Base(path)
		got[name] = true
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if want[name] == "" {
			t.Errorf("%s: on disk but not in the suite", name)
			continue
		}
		if string(src) != want[name] {
			t.Errorf("%s: out of sync with the builder (rerun with -update)", name)
		}
	}
	for name := range want {
		if !got[name] {
			t.Errorf("%s: in the suite but missing on disk (rerun with -update)", name)
		}
	}
}

// TestLitRoundTrip checks the rendered scenarios against the parser:
// Parse∘Format is the identity on the rendered source, and the
// reparsed test runs to the same verdicts — the array/CAS grammar
// extension carries the whole tier.
func TestLitRoundTrip(t *testing.T) {
	for _, s := range Suite() {
		src := s.Lit()
		f, err := parser.Parse(s.Test.Name, src)
		if err != nil {
			t.Fatalf("%s: reparse: %v\n%s", s.Test.Name, err, src)
		}
		if again := f.Format(); again != src {
			t.Errorf("%s: Format∘Parse drifted:\n--- built ---\n%s\n--- reparsed ---\n%s",
				s.Test.Name, src, again)
		}
		parsed, err := f.Test()
		if err != nil {
			t.Fatal(err)
		}
		if diff := testDiff(parsed, s.Test); diff != "" {
			t.Errorf("%s: reparsed test differs from the built test in its %s", s.Test.Name, diff)
		}
	}
}

// testDiff names the first part in which two litmus tests differ, ""
// when they agree on everything but the name: the program (by its
// signature), the initial memory, the observed registers in order,
// each expectation set as a set of outcomes over the observed
// registers, and the event bound.
func testDiff(a, b *litmus.Test) string {
	outcomes := func(t *litmus.Test, set []litmus.Outcome) []string {
		keys := make([]string, len(set))
		for i, o := range set {
			keys[i] = o.Key(t.Observe)
		}
		slices.Sort(keys)
		return keys
	}
	switch {
	case !bytes.Equal(lang.AppendProgSig(nil, a.Prog), lang.AppendProgSig(nil, b.Prog)):
		return "program"
	case !maps.Equal(a.Init, b.Init):
		return "initial memory"
	case !slices.Equal(a.Observe, b.Observe):
		return "observed registers"
	case !slices.Equal(outcomes(a, a.Allowed), outcomes(b, b.Allowed)):
		return "allowed outcomes"
	case !slices.Equal(outcomes(a, a.Forbidden), outcomes(b, b.Forbidden)):
		return "forbidden outcomes"
	case !slices.Equal(outcomes(a, a.SCAllowed), outcomes(b, b.SCAllowed)):
		return "SC-allowed outcomes"
	case !slices.Equal(outcomes(a, a.SCForbidden), outcomes(b, b.SCForbidden)):
		return "SC-forbidden outcomes"
	case a.MaxEvents != b.MaxEvents:
		return "event bound"
	}
	return ""
}

// TestTestDiffSeesEachPart checks the round trip's comparison: it
// ignores the name and the order of an expectation set, and reports a
// change to any other part.
func TestTestDiffSeesEachPart(t *testing.T) {
	base := func() *litmus.Test {
		return &litmus.Test{
			Name:      "base",
			Prog:      lang.Prog{lang.AssignC("x", lang.V(1)), lang.AssignC("a", lang.X("x"))},
			Init:      map[event.Var]event.Val{"x": 0, "a": 0},
			Observe:   []event.Var{"a"},
			Allowed:   []litmus.Outcome{{"a": 0}, {"a": 1}},
			Forbidden: []litmus.Outcome{{"a": 2}},
			MaxEvents: 10,
		}
	}
	same := base()
	same.Name = "renamed"
	same.Allowed = []litmus.Outcome{{"a": 1}, {"a": 0}}
	if diff := testDiff(same, base()); diff != "" {
		t.Fatalf("renamed and reordered test differs in its %s", diff)
	}
	for want, mutate := range map[string]func(*litmus.Test){
		"program":               func(tc *litmus.Test) { tc.Prog[0] = lang.AssignRelC("x", lang.V(1)) },
		"initial memory":        func(tc *litmus.Test) { tc.Init["x"] = 1 },
		"observed registers":    func(tc *litmus.Test) { tc.Observe = []event.Var{"a", "x"} },
		"allowed outcomes":      func(tc *litmus.Test) { tc.Allowed = tc.Allowed[:1] },
		"forbidden outcomes":    func(tc *litmus.Test) { tc.Forbidden = nil },
		"SC-allowed outcomes":   func(tc *litmus.Test) { tc.SCAllowed = []litmus.Outcome{{"a": 1}} },
		"SC-forbidden outcomes": func(tc *litmus.Test) { tc.SCForbidden = []litmus.Outcome{{"a": 0}} },
		"event bound":           func(tc *litmus.Test) { tc.MaxEvents = 11 },
	} {
		tc := base()
		mutate(tc)
		if got := testDiff(tc, base()); got != want {
			t.Errorf("changing the %s: testDiff reports %q", want, got)
		}
	}
}

// TestSuiteNamesUnique guards the file mapping.
func TestSuiteNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range Suite() {
		if seen[s.Test.Name] {
			t.Errorf("duplicate scenario name %s", s.Test.Name)
		}
		seen[s.Test.Name] = true
		if !strings.HasPrefix(s.Test.Name, "ds-") {
			t.Errorf("scenario %s: names are ds-prefixed", s.Test.Name)
		}
	}
}
