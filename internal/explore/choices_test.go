package explore

import (
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/lang"
	"repro/internal/model"
	"repro/internal/telemetry"
)

// countingCfg is a test backend: the rar backend with its builder and
// Key calls counted and, when skew is set, every predicted fingerprint
// deliberately wrong. The skew is a bijection, so the search still
// deduplicates consistently; only the predicted-vs-built audit can
// tell.
type countingCfg struct {
	core.Config
	tb *testBackend
}

type testBackend struct {
	builds, keys atomic.Int64
	skew         bool
}

func (c countingCfg) AppendStepChoices(out []model.Choice, ps lang.ProgStep) []model.Choice {
	n := len(out)
	out = c.Config.AppendStepChoices(out, ps)
	if c.tb.skew {
		for i := n; i < len(out); i++ {
			out[i].FP.Lo ^= 0x5a5a
		}
	}
	return out
}

func (c countingCfg) Build(ps lang.ProgStep, ch model.Choice) countingCfg {
	c.tb.builds.Add(1)
	return countingCfg{Config: c.Config.Build(ps, ch), tb: c.tb}
}

func (c countingCfg) Key() string {
	c.tb.keys.Add(1)
	return c.Config.Key()
}

// runCounting explores the Peterson workload through the test backend.
func runCounting(tb *testBackend, opts Options) (Result, telemetry.Snapshot) {
	p, vars := petersonProg()
	reg := telemetry.NewEngineRegistry()
	opts.Metrics = reg
	res := runAs(countingCfg{Config: core.NewConfig(p, vars), tb: tb}, opts)
	return res, reg.Snapshot()
}

// TestDuplicatesAreNeverBuilt: a serial run to its fixpoint builds
// exactly the configurations it keeps — every admitted one but the
// root, plus every re-queue — and nothing for a dedup hit or a
// bound-suppressed choice.
func TestDuplicatesAreNeverBuilt(t *testing.T) {
	for _, por := range []bool{false, true} {
		var tb testBackend
		res, snap := runCounting(&tb, Options{MaxEvents: 10, Workers: 1, POR: por})
		if res.Verdict != VerdictProved {
			t.Fatalf("por=%v: verdict %v", por, res.Verdict)
		}
		admitted, requeues := snap.Counter("states_admitted"), snap.Counter("requeues")
		if snap.Counter("dedup_hits") == 0 || snap.Counter("bound_suppressed") == 0 {
			t.Fatalf("por=%v: workload has no duplicates or no bound cut; the test proves nothing", por)
		}
		want := int64(admitted - 1 + requeues)
		if got := tb.builds.Load(); got != want {
			t.Errorf("por=%v: built %d successors, want admitted-1+requeues = %d", por, got, want)
		}
	}
}

// TestPredictionAudit: under the audit every built configuration's
// Fingerprint is compared with the prediction it was deduplicated by,
// so a backend that predicts wrongly is reported — once per build
// here, since every prediction is skewed — and every candidate's Key
// is still audited.
func TestPredictionAudit(t *testing.T) {
	opts := Options{MaxEvents: 8, Workers: 1, audit: true}
	var honest testBackend
	want, _ := runCounting(&honest, opts)
	if want.ClosureMismatches != 0 || want.FingerprintCollisions != 0 {
		t.Fatalf("honest backend: %d mismatches, %d collisions", want.ClosureMismatches, want.FingerprintCollisions)
	}

	skewed := testBackend{skew: true}
	res, snap := runCounting(&skewed, opts)
	if res.Explored != want.Explored || res.Terminated != want.Terminated {
		t.Fatalf("skewed search drifted: %d/%d states, want %d/%d",
			res.Explored, res.Terminated, want.Explored, want.Terminated)
	}
	if builds := skewed.builds.Load(); builds == 0 || int64(res.ClosureMismatches) != builds {
		t.Errorf("audit reported %d mismatches for %d skewed builds", res.ClosureMismatches, builds)
	}
	if res.FingerprintCollisions != 0 {
		t.Errorf("%d collisions", res.FingerprintCollisions)
	}
	// Every candidate offered for admission, plus the root, had its
	// Key audited.
	candidates := snap.Counter("successors") - snap.Counter("bound_suppressed") + 1
	if got := skewed.keys.Load(); got != int64(candidates) {
		t.Errorf("collision audit saw %d keys, want %d candidates", got, candidates)
	}
}
