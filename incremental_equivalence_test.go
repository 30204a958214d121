package repro

// Equivalence of the incremental derived-order engine with from-scratch
// recomputation, across the whole testdata litmus suite: explore.Audit's
// unreduced search recomputes hb/eco/comb, the observability sets and
// the maintained indexes at every admitted configuration and compares
// them with the inherited-and-extended values. The audit must count
// zero mismatches, and the audited search's statistics must equal a
// plain unreduced search's — serially and (under -race, see CI) with
// parallel workers, where closure rows are shared across them.

import (
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/model"
)

// testdataConfigs parses every .lit program under testdata, through
// the same parseFile helper the integration tests use.
func testdataConfigs(t *testing.T) map[string]core.Config {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("testdata", "*.lit"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata programs: %v", err)
	}
	out := make(map[string]core.Config, len(files))
	for _, fn := range files {
		name := filepath.Base(fn)
		f := parseFile(t, name)
		prog, err := f.Prog()
		if err != nil {
			t.Fatal(err)
		}
		out[name] = core.NewConfig(prog, f.Init)
	}
	return out
}

// requireIncrementalEquivalent fails unless the audit of cfg under
// opts counted zero closure mismatches on its unreduced search and
// that search explored exactly what a plain unreduced search under
// the same options does: the self-checks observe the search, never
// steer it.
func requireIncrementalEquivalent(t *testing.T, cfg model.Config, opts explore.Options) {
	t.Helper()
	audited := sharedAudit(t, cfg, opts).Full
	if audited.ClosureMismatches != 0 {
		t.Fatalf("workers=%d: %d closure mismatches", opts.Workers, audited.ClosureMismatches)
	}
	plain := explore.Run(cfg, opts)
	if plain.Explored != audited.Explored ||
		plain.Terminated != audited.Terminated ||
		plain.Depth != audited.Depth ||
		plain.Truncated != audited.Truncated {
		t.Fatalf("workers=%d: audit changed the exploration: %+v != %+v",
			opts.Workers, plain, audited)
	}
}

func TestIncrementalEquivalenceTestdata(t *testing.T) {
	for name, cfg := range testdataConfigs(t) {
		t.Run(name, func(t *testing.T) {
			for _, workers := range []int{1, 8} {
				requireIncrementalEquivalent(t, cfg, explore.Options{MaxEvents: 9, Workers: workers})
			}
		})
	}
}
