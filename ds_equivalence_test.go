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

// TestDSCheckPOR audits every DS program at its own bound, serial and
// parallel. TestDSIncrementalEquivalence reads the same audits.
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
				opts := explore.Options{MaxEvents: f.MaxEvents, Workers: workers}
				requireCleanAudit(t, sharedAudit(t, cfg, opts), workers)
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
				requireCleanAudit(t, explore.Audit(cfg, explore.Options{Workers: workers}), workers)
			}
		})
	}
}

// TestDSIncrementalEquivalence checks, on every DS program at its own
// bound, serial and parallel, that the audited unreduced search counts
// zero closure mismatches and explores exactly what a plain one does.
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
				opts := explore.Options{MaxEvents: f.MaxEvents, Workers: workers}
				requireIncrementalEquivalent(t, cfg, opts)
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
