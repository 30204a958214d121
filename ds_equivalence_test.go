package repro

// Equivalence sweeps over the data-structure workload tier
// (testdata/ds): the same POR, incremental-closure and
// serial-vs-parallel contracts the flat litmus testdata suite pins,
// re-run over programs with arrays, CAS-retry loops and spin loops —
// the shapes the DS tier introduced. Each .lit file carries its own
// maxevents bound (the bound its expectations were calibrated at);
// the sweeps explore at that bound under RAR and unbounded under SC,
// whose state spaces are finite.

import (
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/model/backends"
	"repro/internal/parser"
)

// dsFiles parses every program under testdata/ds.
func dsFiles(t *testing.T) map[string]*parser.File {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("testdata", "ds", "*.lit"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata/ds programs: %v", err)
	}
	out := make(map[string]*parser.File, len(files))
	for _, fn := range files {
		out[filepath.Base(fn)] = parseFile(t, filepath.Join("ds", filepath.Base(fn)))
	}
	return out
}

func TestDSCheckPOR(t *testing.T) {
	for name, f := range dsFiles(t) {
		name, f := name, f
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			prog, err := f.Prog()
			if err != nil {
				t.Fatal(err)
			}
			cfg := core.NewConfig(prog, f.Init)
			for _, workers := range []int{1, 8} {
				a := explore.Audit(cfg, explore.Options{MaxEvents: f.MaxEvents, Workers: workers})
				if !a.POR.SetsCompared || !a.Workers.SetsCompared {
					t.Fatalf("workers=%d: audit did not compare fingerprint sets", workers)
				}
				if n := a.Divergences(); n != 0 {
					t.Fatalf("workers=%d: %d divergences: %s", workers, n, a)
				}
				if a.Reduced.Explored > a.Full.Explored {
					t.Fatalf("workers=%d: reduced explored more than full: %s", workers, a)
				}
			}
		})
	}
}

func TestDSCheckPORSC(t *testing.T) {
	m, err := backends.Get("sc")
	if err != nil {
		t.Fatal(err)
	}
	for name, f := range dsFiles(t) {
		name, f := name, f
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			prog, err := f.Prog()
			if err != nil {
				t.Fatal(err)
			}
			cfg := m.New(prog, f.Init)
			for _, workers := range []int{1, 8} {
				a := explore.Audit(cfg, explore.Options{Workers: workers})
				if !a.POR.SetsCompared || !a.Workers.SetsCompared {
					t.Fatalf("workers=%d: audit did not compare fingerprint sets", workers)
				}
				if n := a.Divergences(); n != 0 {
					t.Fatalf("workers=%d: %d divergences: %s", workers, n, a)
				}
				if a.Reduced.Explored > a.Full.Explored {
					t.Fatalf("workers=%d: reduced explored more than full: %s", workers, a)
				}
			}
		})
	}
}

func TestDSIncrementalEquivalence(t *testing.T) {
	for name, f := range dsFiles(t) {
		name, f := name, f
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			prog, err := f.Prog()
			if err != nil {
				t.Fatal(err)
			}
			cfg := core.NewConfig(prog, f.Init)
			for _, workers := range []int{1, 8} {
				plain := explore.Run(cfg, explore.Options{
					MaxEvents: f.MaxEvents, Workers: workers,
				})
				audited := explore.Run(cfg, explore.Options{
					MaxEvents: f.MaxEvents, Workers: workers, CheckIncremental: true,
				})
				if audited.ClosureMismatches != 0 {
					t.Fatalf("workers=%d: %d closure mismatches", workers, audited.ClosureMismatches)
				}
				if plain.Explored != audited.Explored ||
					plain.Terminated != audited.Terminated ||
					plain.Depth != audited.Depth ||
					plain.Truncated != audited.Truncated {
					t.Fatalf("workers=%d: audit changed the exploration: %+v != %+v",
						workers, plain, audited)
				}
			}
		})
	}
}

func TestDSSerialParallelEquivalence(t *testing.T) {
	for _, m := range backends.All() {
		for name, f := range dsFiles(t) {
			m, name, f := m, name, f
			t.Run(m.Name()+"/"+name, func(t *testing.T) {
				t.Parallel()
				prog, err := f.Prog()
				if err != nil {
					t.Fatal(err)
				}
				cfg := m.New(prog, f.Init)
				s := explore.Run(cfg, explore.Options{MaxEvents: f.MaxEvents, Workers: 1, POR: true})
				p := explore.Run(cfg, explore.Options{MaxEvents: f.MaxEvents, Workers: 8, POR: true})
				if s.Explored != p.Explored || s.Terminated != p.Terminated ||
					s.Depth != p.Depth || s.Truncated != p.Truncated {
					t.Fatalf("serial %+v != parallel %+v", s, p)
				}
			})
		}
	}
}
