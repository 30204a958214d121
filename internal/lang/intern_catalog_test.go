package lang_test

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/lang"
	"repro/internal/litmus"
	"repro/internal/model"
	"repro/internal/parser"
	"repro/internal/sc"
)

// internWorkloads is the litmus catalog plus the data-structure
// scenarios committed under testdata/ds.
func internWorkloads(t *testing.T) []*litmus.Test {
	t.Helper()
	tests := litmus.Suite()
	files, err := filepath.Glob("../../testdata/ds/*.lit")
	if err != nil || len(files) == 0 {
		t.Fatalf("testdata/ds: %v (%d files)", err, len(files))
	}
	for _, path := range files {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		f, err := parser.Parse(filepath.Base(path), string(src))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		lt, err := f.Test()
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		tests = append(tests, lt)
	}
	return tests
}

// TestInternFingerprintMatchesConfigFingerprint checks, on every
// configuration the explorer admits for the catalog and testdata/ds
// under both backends, that the fingerprint hashed from the interned
// node's cached signature is ConfigFingerprint over the serialised
// program, and that the node's memo audits clean.
func TestInternFingerprintMatchesConfigFingerprint(t *testing.T) {
	for _, lt := range internWorkloads(t) {
		bound := lt.MaxEvents
		if bound == 0 {
			bound = 12
		}
		opts := explore.Options{MaxEvents: bound, Workers: 1, POR: true}
		configs := 0
		opts.TypedProperty = func(c core.Config) bool {
			configs++
			if got, want := c.Fingerprint(), lang.ConfigFingerprint(c.S.Fingerprint(), c.Program()); got != want {
				t.Errorf("%s rar: fingerprint %x, serialised %x at %s", lt.Name, got, want, c.Program())
			}
			if bad := c.Node().Audit(); len(bad) != 0 {
				t.Errorf("%s rar: node audit %v", lt.Name, bad)
			}
			return true
		}
		explore.Run(core.NewConfig(lt.Prog, lt.Init), opts)

		// The SC backend's state fingerprint is internal; its
		// AuditIncremental makes the same comparison.
		opts.TypedProperty = func(c sc.Config) bool {
			configs++
			if bad := c.AuditIncremental(); len(bad) != 0 {
				t.Errorf("%s sc: audit %v", lt.Name, bad)
			}
			return true
		}
		explore.Run(sc.NewConfig(lt.Prog, lt.Init), opts)
		if configs == 0 {
			t.Errorf("%s: no configurations checked", lt.Name)
		}
	}
}

// TestInternProgramAllocatesNothing: reading a configuration's program
// shares the interned node's.
func TestInternProgramAllocatesNothing(t *testing.T) {
	lt := litmus.Suite()[0]
	for _, c := range []model.Config{core.NewConfig(lt.Prog, lt.Init), sc.NewConfig(lt.Prog, lt.Init)} {
		var sink lang.Prog
		if allocs := testing.AllocsPerRun(100, func() { sink = c.Program() }); allocs != 0 {
			t.Fatalf("%T.Program allocates %.1f times per call", c, allocs)
		}
		_ = sink
	}
}
