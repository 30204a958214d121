package repro

// Contract tests of the partial-order reduction (explore.Options.POR)
// over both memory-model backends: explore.Audit must report zero
// divergences — identical property verdicts, identical terminated-state
// fingerprint sets, a reduced reachable set contained in the full one,
// and serial and parallel reduced searches that agree — across the
// whole testdata litmus suite, under RAR and under SC; the worker counts must
// agree on the reduced search's statistics (the sleep-mask fixpoint
// is engine-order independent); the reduction must actually reduce
// (the acceptance bar: ≥ 30% fewer configurations on the Peterson
// verification workload at bound 10); and the broken Peterson
// variant's mutual-exclusion violation — a label-visible property —
// must still be found under reduction. The SC backend additionally
// regression-tests the ignoring problem specific to models whose
// memory steps can close cycles: a private spin loop must not be
// chosen as a reducing singleton.

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/explore"
	"repro/internal/lang"
	"repro/internal/litmus"
	"repro/internal/model"
	"repro/internal/model/backends"
	"repro/internal/sc"
)

// requireCleanAudit fails unless the audit compared the fingerprint
// sets, counted zero divergences — the incremental and collision
// audits of its unreduced search included — and the reduced search
// explored no more than the full.
func requireCleanAudit(t *testing.T, a explore.AuditReport, workers int) {
	t.Helper()
	if !a.POR.SetsCompared || !a.Workers.SetsCompared {
		t.Fatalf("workers=%d: audit did not compare fingerprint sets", workers)
	}
	if n := a.Divergences(); n != 0 {
		t.Fatalf("workers=%d: %d divergences: %s", workers, n, a)
	}
	if a.Reduced.Explored > a.Full.Explored {
		t.Fatalf("workers=%d: reduced search explored more than full: %s", workers, a)
	}
}

// sharedAudits hands each RAR audit of a program from whichever of its
// two tests asks first — the POR contract test and the incremental
// equivalence test over the same programs — to the other, so one
// `go test` run audits each program and worker count once between
// them. An audit is handed over at most once: a test asking again
// for its own audit (only one of the pair selected, -count > 1)
// recomputes it.
var sharedAudits = struct {
	sync.Mutex
	m map[string]sharedAuditEntry
}{m: map[string]sharedAuditEntry{}}

type sharedAuditEntry struct {
	by string // the top-level test that ran the audit
	a  explore.AuditReport
}

// sharedAudit returns explore.Audit(cfg, opts) for the calling
// subtest's program, taking it over from the paired test if that test
// already ran it.
func sharedAudit(t *testing.T, cfg model.Config, opts explore.Options) explore.AuditReport {
	t.Helper()
	top, prog, _ := strings.Cut(t.Name(), "/")
	key := fmt.Sprintf("%s max=%d workers=%d", prog, opts.MaxEvents, opts.Workers)
	sharedAudits.Lock()
	e, ok := sharedAudits.m[key]
	if ok && e.by != top {
		delete(sharedAudits.m, key)
		sharedAudits.Unlock()
		return e.a
	}
	sharedAudits.Unlock()
	a := explore.Audit(cfg, opts)
	sharedAudits.Lock()
	sharedAudits.m[key] = sharedAuditEntry{by: top, a: a}
	sharedAudits.Unlock()
	return a
}

// TestCheckPORTestdata audits every testdata program at bound 9,
// serial and parallel: the POR and workers contracts, the incremental
// closures and the fingerprints. TestIncrementalEquivalenceTestdata
// reads the same audits.
func TestCheckPORTestdata(t *testing.T) {
	for name, cfg := range testdataConfigs(t) {
		t.Run(name, func(t *testing.T) {
			for _, workers := range []int{1, 8} {
				opts := explore.Options{MaxEvents: 9, Workers: workers}
				requireCleanAudit(t, sharedAudit(t, cfg, opts), workers)
			}
		})
	}
}

// TestCheckPORTestdataSC is the same reduced-vs-full contract over
// the SC backend: reduced ⊆ full reachability, identical terminated
// sets and verdicts, zero divergences, on every testdata program,
// serial and parallel. The testdata programs' SC state spaces are
// finite, so no MaxEvents bound is needed.
func TestCheckPORTestdataSC(t *testing.T) {
	m, err := backends.Get("sc")
	if err != nil {
		t.Fatal(err)
	}
	for name, cfg := range testdataConfigs(t) {
		t.Run(name, func(t *testing.T) {
			scCfg := m.New(cfg.Program(), scInitOf(t, name))
			for _, workers := range []int{1, 8} {
				requireCleanAudit(t, explore.Audit(scCfg, explore.Options{Workers: workers}), workers)
			}
		})
	}
}

// scInitOf re-parses the testdata file to recover its init map (the
// RAR configs of testdataConfigs embed it in the C11 state).
func scInitOf(t *testing.T, name string) map[event.Var]event.Val {
	t.Helper()
	return parseFile(t, name).Init
}

func TestPORSerialParallelEquivalenceLitmusSuite(t *testing.T) {
	for _, m := range backends.All() {
		for _, tc := range litmus.Suite() {
			t.Run(m.Name()+"/"+tc.Name, func(t *testing.T) {
				cfg := m.New(tc.Prog, tc.Init)
				s := explore.Run(cfg, explore.Options{MaxEvents: 10, Workers: 1, POR: true})
				p := explore.Run(cfg, explore.Options{MaxEvents: 10, Workers: 8, POR: true})
				if s.Explored != p.Explored || s.Terminated != p.Terminated ||
					s.Depth != p.Depth || s.Truncated != p.Truncated {
					t.Fatalf("serial %+v != parallel %+v", s, p)
				}
			})
		}
	}
}

// TestPORDrainRegression pins the silent-drain fix the fuzzer forced:
// testdata/gen-por-drain.lit is a shrunk c11 fuzz reproducer on which,
// before the fix, the reduced search missed terminated configurations
// at truncating bounds (11 and 13 among the ones below) — their final
// silent steps were frozen at the progress bound in the reduced
// representative order but not in some full-search order. With
// at-bound silent draining the audit must be clean at every bound,
// serial and parallel.
func TestPORDrainRegression(t *testing.T) {
	cfg, ok := testdataConfigs(t)["gen-por-drain.lit"]
	if !ok {
		t.Fatal("testdata/gen-por-drain.lit missing")
	}
	for bound := 6; bound <= 16; bound++ {
		for _, workers := range []int{1, 4} {
			a := explore.Audit(cfg, explore.Options{MaxEvents: bound, Workers: workers})
			if !a.POR.SetsCompared {
				t.Fatalf("bound=%d workers=%d: sets not compared", bound, workers)
			}
			if n := a.Divergences(); n != 0 {
				t.Fatalf("bound=%d workers=%d: %d divergences: %s", bound, workers, n, a)
			}
		}
	}
}

func TestPORReductionPeterson(t *testing.T) {
	p, vars := litmus.Peterson()
	a := explore.Audit(core.NewConfig(p, vars), explore.Options{MaxEvents: 10, Workers: 1})
	if n := a.Divergences(); n != 0 {
		t.Fatalf("%d divergences: %s", n, a)
	}
	// The acceptance bar: at least 30% fewer configurations at bound 10.
	if limit := a.Full.Explored * 7 / 10; a.Reduced.Explored > limit {
		t.Fatalf("reduction too weak: reduced=%d > 70%% of full=%d",
			a.Reduced.Explored, a.Full.Explored)
	}
	t.Logf("%s", a)
}

func TestPORReductionPetersonSC(t *testing.T) {
	p, vars := litmus.Peterson()
	a := explore.Audit(sc.NewConfig(p, vars), explore.Options{Workers: 1})
	if n := a.Divergences(); n != 0 {
		t.Fatalf("%d divergences: %s", n, a)
	}
	if a.Reduced.Explored > a.Full.Explored {
		t.Fatalf("reduced=%d > full=%d", a.Reduced.Explored, a.Full.Explored)
	}
	t.Logf("%s", a)
}

func TestPORWeakTurnViolation(t *testing.T) {
	// Mutual exclusion observes the "cs" labels; the reduction treats
	// label-visible steps as dependent with everything, so the broken
	// variant must still be caught with POR on, at every worker count.
	p, vars := litmus.PetersonWeakTurn()
	for _, workers := range []int{1, 8} {
		res := explore.Run(core.NewConfig(p, vars), explore.Options{
			MaxEvents: 12,
			Workers:   workers,
			POR:       true,
			Property:  litmus.MutualExclusion,
		})
		if res.Violation == nil {
			t.Fatalf("workers=%d: mutual-exclusion violation not found under POR", workers)
		}
		if litmus.MutualExclusion(res.Violation) {
			t.Fatalf("workers=%d: reported violation does not falsify the property", workers)
		}
	}
}

// TestPORSCSpinLoopNotIgnored regression-tests the SC-specific
// ignoring problem: a thread spinning on a variable no other thread
// touches conflictingly cycles through the same (program, store)
// configurations, so reducing to it as a memory-step singleton would
// postpone the other threads forever and lose their terminated
// states. The loop-freedom guard must keep the search complete.
func TestPORSCSpinLoopNotIgnored(t *testing.T) {
	prog := lang.Prog{
		// Spins forever: x is never written by anyone.
		lang.WhileC(lang.Eq(lang.X("x"), lang.V(0)), lang.SkipC()),
		// Must still reach its terminated residual and the cs label.
		lang.SeqC(
			lang.AssignC("y", lang.V(1)),
			lang.LabelC("cs", lang.AssignC("y", lang.V(2))),
		),
	}
	vars := map[event.Var]event.Val{"x": 0, "y": 0}
	cfg := sc.NewConfig(prog, vars)

	for _, workers := range []int{1, 8} {
		a := explore.Audit(cfg, explore.Options{Workers: workers})
		if n := a.Divergences(); n != 0 {
			t.Fatalf("workers=%d: %d divergences: %s", workers, n, a)
		}
	}
	// The label must be observable under reduction.
	res := explore.Run(cfg, explore.Options{POR: true, Property: func(c model.Config) bool {
		return lang.AtLabel(c.Program().Thread(2)) != "cs"
	}})
	if res.Violation == nil {
		t.Fatal("label-visible state hidden by the reduction under SC")
	}
}
