package repro

// Lifetime regression test for core states: a successor drops its
// link to the parent once it has inherited hb, eco and comb, so the
// states a search keeps alive are its frontier and their parents, not
// the ancestor chains behind them. The test watches every distinct
// admitted state through a weak pointer and counts the survivors of a
// forced collection against the live frontier.

import (
	"runtime"
	"testing"
	"weak"

	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/litmus"
	"repro/internal/telemetry"
)

// TestStateLifetimePeterson runs the serial POR Peterson search at
// bound 80 (44,734 states) and, every 10,000 admissions, collects
// garbage and counts the admitted states still reachable. An expanded
// state pins nothing and an unexpanded one at most its parent, so the
// count stays within a small multiple of the frontier; a state that
// kept its parent link would pin its whole ancestor chain and the
// count would grow with the search instead.
func TestStateLifetimePeterson(t *testing.T) {
	const (
		every = 10_000
		ratio = 5 // live states per frontier entry
	)
	p, vars := litmus.Peterson()
	reg := telemetry.NewEngineRegistry()
	// Keyed by weak pointer: silent successors share their parent's
	// state, and a strong key would keep every state alive.
	seen := make(map[weak.Pointer[core.State]]struct{})
	admitted, checks := 0, 0
	prop := func(c core.Config) bool {
		seen[weak.Make(c.S)] = struct{}{}
		admitted++
		if admitted%every != 0 {
			return true
		}
		runtime.GC()
		live := 0
		for w := range seen {
			if w.Value() != nil {
				live++
			} else {
				delete(seen, w)
			}
		}
		frontier := reg.GaugeValue(telemetry.EngineGaugeFrontier)
		t.Logf("admitted %d: %d live states, frontier %d", admitted, live, frontier)
		if int64(live) > ratio*max(frontier, 1) {
			t.Errorf("admitted %d: %d live states for a frontier of %d (over %d×)",
				admitted, live, frontier, ratio)
		}
		checks++
		return true
	}
	res := explore.Run(core.NewConfig(p, vars), explore.Options{
		MaxEvents:     80,
		Workers:       1,
		POR:           true,
		Metrics:       reg,
		TypedProperty: prop,
	})
	if res.Explored != 44_734 || res.Verdict != explore.VerdictProved {
		t.Fatalf("search: %d states, verdict %v; want 44734, PROVED", res.Explored, res.Verdict)
	}
	if checks != res.Explored/every {
		t.Fatalf("%d lifetime checks for %d states", checks, res.Explored)
	}
}
