package telemetry

import (
	"sync"
	"testing"
)

func TestRegistryStripedTotals(t *testing.T) {
	r := NewEngineRegistry()
	// 8 workers hammer distinct cells plus the shared stripe-0
	// convenience path; the snapshot must equal the serial ground
	// truth exactly.
	const workers = 8
	const perWorker = 100_000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cell := r.Cell(w)
			for i := 0; i < perWorker; i++ {
				cell.Add(EngineExpansions, 1)
				cell.Add(EngineSuccessors, 3)
				if i%10 == 0 {
					r.Add(EngineDedupHits, 1)
				}
				r.MaxGauge(EngineGaugeDepth, int64(w*perWorker+i))
			}
		}(w)
	}
	wg.Wait()

	snap := r.Snapshot()
	if got, want := snap.Counter("expansions"), uint64(workers*perWorker); got != want {
		t.Errorf("expansions = %d, want %d", got, want)
	}
	if got, want := snap.Counter("successors"), uint64(workers*perWorker*3); got != want {
		t.Errorf("successors = %d, want %d", got, want)
	}
	if got, want := snap.Counter("dedup_hits"), uint64(workers*perWorker/10); got != want {
		t.Errorf("dedup_hits = %d, want %d", got, want)
	}
	if got, want := snap.Gauge("max_depth"), int64(workers*perWorker-1); got != want {
		t.Errorf("max_depth = %d, want %d", got, want)
	}
	if got := r.Total(EngineExpansions); got != uint64(workers*perWorker) {
		t.Errorf("Total(EngineExpansions) = %d", got)
	}
}

func TestRegistryCellSharing(t *testing.T) {
	r := NewEngineRegistry()
	// Workers beyond the stripe count wrap onto existing cells; the
	// totals must still be exact.
	for w := 0; w < 3*numStripes; w++ {
		r.Cell(w).Add(EnginePanics, 1)
	}
	if got := r.Total(EnginePanics); got != 3*numStripes {
		t.Fatalf("Total = %d, want %d", got, 3*numStripes)
	}
	if r.Cell(-1) != r.Cell(0) {
		t.Error("negative worker id should map to cell 0")
	}
}

func TestRegistryNilSafety(t *testing.T) {
	var r *Registry
	r.Add(EngineExpansions, 1)
	r.SetGauge(EngineGaugeFrontier, 5)
	r.MaxGauge(EngineGaugeDepth, 5)
	if r.Total(EngineExpansions) != 0 || r.GaugeValue(EngineGaugeDepth) != 0 {
		t.Error("nil registry should read as zero")
	}
	cell := r.Cell(3)
	if cell != nil {
		t.Error("nil registry should yield nil cell")
	}
	cell.Add(EngineExpansions, 1) // must not panic
	if cell.Get(EngineExpansions) != 0 {
		t.Error("nil cell should read as zero")
	}
	snap := r.Snapshot()
	if len(snap.CounterNames) != 0 || snap.Counter("expansions") != 0 {
		t.Error("nil registry snapshot should be empty")
	}

	var tr *Tracer
	tr.Begin("x", 0)
	tr.End("x", 0, nil)
	tr.Instant("x", 0, nil)
	tr.Count("x", 0, nil)
	if tr.Flush() != nil || tr.Close() != nil || tr.Err() != nil {
		t.Error("nil tracer methods should be no-ops")
	}

	var rep *Reporter
	rep.Start()
	rep.Stop()
}

func TestRegistryAddAllocFree(t *testing.T) {
	r := NewEngineRegistry()
	cell := r.Cell(1)
	allocs := testing.AllocsPerRun(1000, func() {
		cell.Add(EngineExpansions, 1)
		r.Add(EngineDedupHits, 1)
		r.MaxGauge(EngineGaugeDepth, 7)
		r.SetGauge(EngineGaugeFrontier, 3)
	})
	if allocs != 0 {
		t.Fatalf("registry hot path allocates: %v allocs/run", allocs)
	}
	// The disabled path (nil receivers) must also be alloc-free.
	var nilReg *Registry
	nilCell := nilReg.Cell(0)
	allocs = testing.AllocsPerRun(1000, func() {
		nilCell.Add(EngineExpansions, 1)
		nilReg.MaxGauge(EngineGaugeDepth, 7)
	})
	if allocs != 0 {
		t.Fatalf("nil registry path allocates: %v allocs/run", allocs)
	}
}

// TestEngineSchemaConsistency: every engine counter and gauge has a
// distinct, non-empty name.
func TestEngineSchemaConsistency(t *testing.T) {
	seen := map[string]bool{}
	for i, n := range append(engineCounterNames[:], engineGaugeNames[:]...) {
		if n == "" {
			t.Fatalf("metric %d has no name", i)
		}
		if seen[n] {
			t.Fatalf("duplicate metric name %q", n)
		}
		seen[n] = true
	}
}
