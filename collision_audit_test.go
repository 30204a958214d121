package repro

import (
	"testing"

	"repro/internal/core"
	"repro/internal/explore"
)

// TestFingerprintCollisionSweep pins the fingerprint-collision audit
// on two of the benchmark workloads, with their state counts: the
// E16 scaling client at five writers (full search, every thread runs
// to completion) and the three-thread Peterson client at bound 10
// under POR. Every configuration either search fingerprints — fresh
// or duplicate — has its exact canonical key checked against the
// 128-bit fingerprint, and no two distinct keys may share one.
func TestFingerprintCollisionSweep(t *testing.T) {
	writers, writerVars := scalingProg(5)
	p3, p3Vars := peterson3()
	for _, tc := range []struct {
		name   string
		cfg    core.Config
		opts   explore.Options
		states int
	}{
		{"E16/writers=5", core.NewConfig(writers, writerVars), explore.Options{MaxEvents: 2*5 + 5}, 15331},
		{"E13/peterson3/bound=10/por", core.NewConfig(p3, p3Vars), explore.Options{MaxEvents: 10, POR: true}, 6250},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.opts.CheckCollisions = true
			res := explore.Run(tc.cfg, tc.opts)
			if res.Verdict != explore.VerdictProved {
				t.Fatalf("verdict %v, want PROVED", res.Verdict)
			}
			if res.Explored != tc.states {
				t.Fatalf("explored %d states, want %d", res.Explored, tc.states)
			}
			if res.FingerprintCollisions != 0 {
				t.Fatalf("%d fingerprint collisions", res.FingerprintCollisions)
			}
		})
	}
}
