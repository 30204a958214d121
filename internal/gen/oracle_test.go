package gen

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/parser"
	"repro/internal/telemetry"
)

// The differential fuzz smoke: a fixed seed window through the whole
// oracle battery, zero failures expected. This is the in-tree version
// of the CI c11 fuzz run, small enough for `go test ./...`.
func TestDifferentialFuzzSmoke(t *testing.T) {
	n := int64(12)
	if testing.Short() {
		n = 4
	}
	weak := 0
	for seed := int64(1); seed <= n; seed++ {
		p := Generate(seed, Params{})
		rep := Check(p.File, CheckOpts{MaxEvents: p.Bound + 1, Workers: 4})
		if rep.Failure != nil {
			t.Fatalf("seed %d failed %s\n%s", seed, rep.Failure, p.File.Format())
		}
		if len(rep.Weak) > 0 {
			weak++
		}
	}
	t.Logf("%d/%d programs with weak behaviours", weak, n)
}

// The battery pays for one unreduced search per model — the
// self-audit's, which carries the incremental and fingerprint audits
// and is the reference of the reduced searches; everything else runs
// reduced.
func TestCheckOneUnreducedSearchPerModel(t *testing.T) {
	var buf bytes.Buffer
	tr := telemetry.NewTracer(&buf)
	p := Generate(1, Params{})
	if rep := Check(p.File, CheckOpts{MaxEvents: p.Bound + 1, Workers: 2, Tracer: tr}); rep.Failure != nil {
		t.Fatalf("seed 1 failed %s", rep.Failure)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	var events []struct {
		Phase string         `json:"ph"`
		Name  string         `json:"name"`
		Args  map[string]any `json:"args"`
	}
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatal(err)
	}
	searches, unreduced := 0, 0
	for _, ev := range events {
		if ev.Phase == "B" && ev.Name == "search" {
			searches++
			if ev.Args["por"] == false {
				unreduced++
			}
		}
	}
	if unreduced != 2 {
		t.Fatalf("%d unreduced searches of %d, want one per model", unreduced, searches)
	}
}

// A predicate for a kind that does not occur reports false.
func TestPredicateOnPassingProgram(t *testing.T) {
	p := Generate(5, Params{})
	if Predicate(FailRefinement, CheckOpts{MaxEvents: p.Bound + 1})(p.File) {
		t.Fatal("passing program judged failing")
	}
}

// The round-trip oracle rejects a file whose printed form denotes a
// different program (simulated by a printer-hostile AST is impossible
// through the public surface, so check the pass direction plus the
// corpus write/load cycle instead).
func TestCorpusWriteLoad(t *testing.T) {
	dir := t.TempDir()
	p := Generate(9, Params{})
	fail := &Failure{Kind: FailPOR, Detail: "synthetic detail\nsecond line"}
	path, err := WriteRepro(dir, Repro{
		Seed: 9, Fail: fail, Shrunk: p.File, Orig: p.File,
	})
	if err != nil {
		t.Fatal(err)
	}
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"por-divergence", "generated by: c11 fuzz -seed 9 -n 1\n", "synthetic detail", "second line", "-replay"} {
		if !strings.Contains(string(src), want) {
			t.Fatalf("header missing %q:\n%s", want, src)
		}
	}

	files, err := LoadCorpus(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 {
		t.Fatalf("loaded %d files", len(files))
	}
	// The reproducer body is the shrunk program; the commented-out
	// original must not leak into the parse.
	got, _ := files[0].Prog()
	want, _ := p.File.Prog()
	if got.String() != want.String() {
		t.Fatalf("corpus round trip drifted:\n%s\nvs\n%s", got, want)
	}
	if base := filepath.Base(path); base != "por-divergence-seed9.lit" {
		t.Fatalf("unexpected corpus name %s", base)
	}

	// A missing directory is an empty corpus.
	none, err := LoadCorpus(filepath.Join(dir, "absent"))
	if err != nil || len(none) != 0 {
		t.Fatalf("missing dir: %v %v", none, err)
	}
}

// Replayed corpus files go through the same battery as generated
// ones: a hand-written weak-behaviour program must pass all oracles.
func TestCheckHandWrittenProgram(t *testing.T) {
	src := `
init x = 0 y = 0 a = 0 b = 0
thread 1 { x := 1; a := y; }
thread 2 { y := 1; b := x; }
observe a b
`
	f, err := parser.Parse("sb.lit", src)
	if err != nil {
		t.Fatal(err)
	}
	rep := Check(f, CheckOpts{MaxEvents: 8})
	if rep.Failure != nil {
		t.Fatalf("store buffering failed the battery: %s", rep.Failure)
	}
	// SB's a=0;b=0 is the canonical weak behaviour.
	found := false
	for _, w := range rep.Weak {
		if w == "a=0;b=0;" {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected the store-buffering weak outcome, got %v", rep.Weak)
	}
}
