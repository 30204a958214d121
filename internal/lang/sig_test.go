package lang_test

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/lang"
	"repro/internal/litmus"
	"repro/internal/parser"
	"repro/internal/sc"
)

// reachedPrograms returns the programs of testdata/*.lit and
// testdata/ds/*.lit and the residual program of every configuration
// an unreduced serial search of the litmus catalog admits under
// either backend.
func reachedPrograms(t *testing.T) []lang.Prog {
	t.Helper()
	var progs []lang.Prog
	files, err := filepath.Glob("../../testdata/*.lit")
	if err != nil || len(files) == 0 {
		t.Fatalf("testdata: %v (%d files)", err, len(files))
	}
	ds, _ := filepath.Glob("../../testdata/ds/*.lit")
	for _, path := range append(files, ds...) {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		f, err := parser.Parse(filepath.Base(path), string(src))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		p, err := f.Prog()
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		progs = append(progs, p)
	}
	for _, lt := range litmus.Suite() {
		opts := explore.Options{MaxEvents: 12, Workers: 1}
		opts.TypedProperty = func(c core.Config) bool { progs = append(progs, c.Program()); return true }
		explore.Run(core.NewConfig(lt.Prog, lt.Init), opts)
		opts.TypedProperty = func(c sc.Config) bool { progs = append(progs, c.Program()); return true }
		explore.Run(sc.NewConfig(lt.Prog, lt.Init), opts)
	}
	return progs
}

// TestProgSigInjective argues that AppendProgSig is injective, which
// the fingerprint's program hash and the interned node's sig rely on,
// beyond the hand-built programs TestProgSigRoundTrip decodes: over
// every program reachedPrograms collects, distinct renderings
// have distinct signatures, and no signature is a proper prefix of
// another (the encoding is prefix-free, so a program's signature can
// be followed by more data without ambiguity).
func TestProgSigInjective(t *testing.T) {
	progs := reachedPrograms(t)
	sigOf := map[string]string{} // rendering → signature
	strOf := map[string]string{} // signature → rendering
	for _, p := range progs {
		s, sig := p.String(), string(lang.AppendProgSig(nil, p))
		if prev, ok := strOf[sig]; ok && prev != s {
			t.Fatalf("programs %q and %q share a signature", prev, s)
		}
		strOf[sig], sigOf[s] = s, sig
	}
	if len(sigOf) < 100 {
		t.Fatalf("only %d distinct programs collected", len(sigOf))
	}
	// In sorted order every string that extends a prefix p follows p
	// immediately or after other extensions of p, so checking
	// neighbours finds every proper prefix.
	sigs := make([]string, 0, len(strOf))
	for sig := range strOf {
		sigs = append(sigs, sig)
	}
	sort.Strings(sigs)
	for i := 1; i < len(sigs); i++ {
		if strings.HasPrefix(sigs[i], sigs[i-1]) {
			t.Fatalf("signature of %q is a proper prefix of that of %q", strOf[sigs[i-1]], strOf[sigs[i]])
		}
	}
	t.Logf("%d distinct programs", len(sigs))

	// A loop caught mid-iteration is not the fresh loop.
	fresh := lang.WhileC(lang.Ne(lang.XA("f"), lang.V(0)), lang.SkipC())
	mid := lang.While{Guard: lang.Ne(lang.XA("f"), lang.V(0)), Cur: lang.Ne(lang.V(1), lang.V(0)), Body: lang.SkipC()}
	if string(lang.AppendProgSig(nil, lang.Prog{fresh})) == string(lang.AppendProgSig(nil, lang.Prog{mid})) {
		t.Fatal("a loop mid-iteration shares the fresh loop's signature")
	}
}
