package repro

import (
	"testing"

	"repro/internal/core"
	"repro/internal/explore"
)

// TestFingerprintCollisionSweep pins the self-audit, fingerprint
// collisions included, on two of the benchmark workloads, with their
// state counts: the E16 scaling client at five writers (every thread
// runs to completion) and the three-thread Peterson client at bound
// 10. Every configuration the unreduced search fingerprints — fresh
// or duplicate — has its exact canonical key checked against the
// 128-bit fingerprint, and no two distinct keys may share one.
func TestFingerprintCollisionSweep(t *testing.T) {
	writers, writerVars := scalingProg(5)
	p3, p3Vars := peterson3()
	for _, tc := range []struct {
		name          string
		cfg           core.Config
		bound         int
		full, reduced int
	}{
		{"E16/writers=5", core.NewConfig(writers, writerVars), 2*5 + 5, 15331, 15331},
		{"E13/peterson3/bound=10/por", core.NewConfig(p3, p3Vars), 10, 16161, 6250},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := explore.Audit(tc.cfg, explore.Options{MaxEvents: tc.bound})
			if a.Full.Verdict != explore.VerdictProved {
				t.Fatalf("verdict %v, want PROVED", a.Full.Verdict)
			}
			if a.Full.Explored != tc.full {
				t.Fatalf("full search explored %d states, want %d", a.Full.Explored, tc.full)
			}
			if a.Reduced.Explored != tc.reduced {
				t.Fatalf("reduced search explored %d states, want %d", a.Reduced.Explored, tc.reduced)
			}
			if a.Full.FingerprintCollisions != 0 {
				t.Fatalf("%d fingerprint collisions", a.Full.FingerprintCollisions)
			}
			if n := a.Divergences(); n != 0 {
				t.Fatalf("%d divergences: %s", n, a)
			}
		})
	}
}
