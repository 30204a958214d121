package gen

// Corpus layout: one .lit file per reproducer, named
// <kind>-seed<seed>.lit, carrying a comment header with everything
// needed to regenerate it (the seed) and to re-judge it (the failure
// detail and the replay command). The files are ordinary litmus
// files — the header is comments — so every subcommand (c11 explore,
// c11 litmus, the replay mode of c11 fuzz) runs them unchanged.

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/parser"
)

// Repro describes one written reproducer.
type Repro struct {
	Seed int64
	Fail *Failure
	// Shrunk is the minimised file; Orig the program as generated.
	Shrunk, Orig *parser.File
}

// WriteRepro writes the reproducer into dir (created if needed) and
// returns its path. The shrunk program is the body; the original is
// appended, commented out, for forensics.
func WriteRepro(dir string, r Repro) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	name := fmt.Sprintf("%s-seed%d.lit", r.Fail.Kind, r.Seed)
	path := filepath.Join(dir, name)

	var b strings.Builder
	fmt.Fprintf(&b, "// c11 fuzz reproducer: %s\n", r.Fail.Kind)
	for _, line := range strings.Split(r.Fail.Detail, "\n") {
		fmt.Fprintf(&b, "// detail: %s\n", line)
	}
	fmt.Fprintf(&b, "// seed %d, generated by: c11 fuzz -seed %d -n 1\n", r.Seed, r.Seed)
	fmt.Fprintf(&b, "// replay: c11 fuzz -replay %s\n", path)
	b.WriteString(r.Shrunk.Format())
	if r.Orig != nil {
		b.WriteString("\n// original (pre-shrink) program:\n")
		for _, line := range strings.Split(strings.TrimRight(r.Orig.Format(), "\n"), "\n") {
			fmt.Fprintf(&b, "//   %s\n", line)
		}
	}
	return path, os.WriteFile(path, []byte(b.String()), 0o644)
}

// LoadCorpus parses every .lit file directly under dir, sorted by
// name. A missing directory is an empty corpus, not an error.
func LoadCorpus(dir string) ([]*parser.File, error) {
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".lit") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	out := make([]*parser.File, 0, len(names))
	for _, name := range names {
		src, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		f, err := parser.Parse(name, string(src))
		if err != nil {
			return nil, fmt.Errorf("corpus file %s: %w", name, err)
		}
		out = append(out, f)
	}
	return out, nil
}
