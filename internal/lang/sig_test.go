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

// handBuiltPrograms covers every node kind and operator, both
// annotation flags on loads and assigns, nesting, and multi-thread
// programs.
func handBuiltPrograms() []lang.Prog {
	return []lang.Prog{
		{},
		{lang.Skip{}},
		{lang.AssignC("x", lang.V(1))},
		{lang.AssignRelC("y", lang.Add(lang.X("x"), lang.V(2)))},
		{lang.AssignNAC("d", lang.XNA("d"))},
		{lang.SwapC("l", 1), lang.SwapC("l", -3)},
		{lang.SeqC(lang.AssignC("x", lang.V(1)), lang.AssignRelC("y", lang.V(1)), lang.SkipC())},
		{lang.IfC(lang.Eq(lang.XA("y"), lang.V(1)), lang.AssignC("a", lang.X("x")), lang.SkipC())},
		{lang.WhileC(lang.Ne(lang.XA("f"), lang.V(0)), lang.AssignC("x", lang.Add(lang.X("x"), lang.V(1))))},
		{lang.LabelC("cs", lang.AssignC("x", lang.V(7)))},
		{
			lang.SeqC(
				lang.AssignC("x", lang.V(1)),
				lang.WhileC(lang.Not(lang.And(lang.Eq(lang.X("a"), lang.V(0)), lang.Or(lang.X("b"), lang.Un{Op: lang.OpNeg, E: lang.V(5)}))),
					lang.LabelC("body", lang.SeqC(lang.SwapC("m", 1), lang.AssignNAC("z", lang.XNA("z"))))),
			),
			lang.IfC(lang.Bin{Op: lang.OpLt, L: lang.X("i"), R: lang.Bin{Op: lang.OpSub, L: lang.V(10), R: lang.V(3)}},
				lang.SeqC(lang.AssignRelC("y", lang.V(2)), lang.SkipC()),
				lang.LabelC("else", lang.SkipC())),
		},
		// The array/CAS constructs: bare and branching CAS, a CAS on a
		// symbolically indexed cell, symbolic loads in every annotation
		// mix, and indexed assignments (a literal index canonicalises to
		// a plain cell assignment through the constructors — both forms
		// appear).
		{lang.CasStmtC("x", lang.V(0), lang.V(1))},
		{lang.CasC("top", lang.X("obs"), lang.Add(lang.X("obs"), lang.V(1)),
			lang.AssignC("done", lang.V(1)), lang.AssignC("r", lang.XA("top")))},
		{lang.CasAtC("slot", lang.X("i"), lang.V(0), lang.V(7), lang.SkipC(), lang.CasStmtC("slot", lang.V(1), lang.V(7)))},
		{
			lang.AssignC("r", lang.XAt("buf", lang.X("i"))),
			lang.AssignC("s", lang.XAtA("buf", lang.Add(lang.X("i"), lang.V(1)))),
			lang.AssignC("t", lang.XAtNA("buf", lang.X("j"))),
		},
		{
			lang.AssignAtC("buf", lang.X("i"), lang.V(5)),
			lang.AssignAtRelC("buf", lang.X("i"), lang.X("r")),
			lang.AssignAtNAC("buf", lang.X("j"), lang.V(0)),
			lang.AssignAtC("buf", lang.V(3), lang.V(9)), // canonicalises to buf[3] := 9
		},
	}
}

// TestProgSigInjective argues that AppendProgSig is injective, which
// the fingerprint's program hash and the interned node's sig rely on:
// over the hand-built programs and every program reachedPrograms
// collects, distinct renderings have distinct signatures, and no
// signature is a proper prefix of another (the encoding is
// prefix-free, so a program's signature can be followed by more data
// without ambiguity).
func TestProgSigInjective(t *testing.T) {
	progs := append(handBuiltPrograms(), reachedPrograms(t)...)
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

// TestSigDistinguishesArrayCells pins the cache-key property the
// array naming scheme has to provide: distinct cells, distinct index
// expressions, and a symbolic versus concretised access all encode to
// distinct signatures — no pair of them may collide, or the
// exploration caches would conflate their configurations.
func TestSigDistinguishesArrayCells(t *testing.T) {
	progs := map[string]lang.Prog{
		"read-a1":        {lang.AssignC("r", lang.X(lang.Cell("a", 1)))},
		"read-a11":       {lang.AssignC("r", lang.X(lang.Cell("a", 11)))},
		"read-a111":      {lang.AssignC("r", lang.X(lang.Cell("a", 111)))},
		"read-sym-i":     {lang.AssignC("r", lang.XAt("a", lang.X("i")))},
		"read-sym-j":     {lang.AssignC("r", lang.XAt("a", lang.X("j")))},
		"read-sym-acq":   {lang.AssignC("r", lang.XAtA("a", lang.X("i")))},
		"write-a1":       {lang.AssignAtC("a", lang.V(1), lang.V(1))},
		"write-a11":      {lang.AssignAtC("a", lang.V(11), lang.V(1))},
		"write-sym":      {lang.AssignAtC("a", lang.X("i"), lang.V(1))},
		"cas-a1":         {lang.CasStmtC(lang.Cell("a", 1), lang.V(0), lang.V(1))},
		"cas-a11":        {lang.CasStmtC(lang.Cell("a", 11), lang.V(0), lang.V(1))},
		"cas-sym":        {lang.CasAtC("a", lang.X("i"), lang.V(0), lang.V(1), lang.SkipC(), lang.SkipC())},
		"cas-branches":   {lang.CasC(lang.Cell("a", 1), lang.V(0), lang.V(1), lang.AssignC("d", lang.V(1)), lang.SkipC())},
		"plain-var-a":    {lang.AssignC("r", lang.X("a"))},
		"bracket-in-mid": {lang.AssignC("r", lang.X(lang.Cell("a[1]", 2)))}, // pathological nested name
	}
	seen := map[string]string{}
	for name, p := range progs {
		sig := string(lang.AppendProgSig(nil, p))
		if prev, dup := seen[sig]; dup {
			t.Errorf("programs %s and %s share a signature", prev, name)
		}
		seen[sig] = name
	}
}
