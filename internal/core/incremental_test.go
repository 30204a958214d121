package core

// Property tests for the incremental derived-order engine: along any
// transition sequence, the inherited-and-extended hb/eco/comb and the
// maintained indexes (CW among them) must agree exactly with
// from-scratch recomputation (AuditIncremental returns nothing).

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/event"
)

func mustAudit(t *testing.T, s *State, at string) {
	t.Helper()
	if bad := s.AuditIncremental(); len(bad) != 0 {
		t.Fatalf("%s: %d incremental mismatches:\n%s\nstate:\n%s",
			at, len(bad), bad[0], s)
	}
}

// TestIncrementalExample32 walks the paper's Example 3.2 — the
// richest worked example, mixing releasing writes, acquiring reads and
// two updates — auditing after every step.
func TestIncrementalExample32(t *testing.T) {
	s := Init(map[event.Var]event.Val{"x": 0, "y": 0, "z": 0})
	mustAudit(t, s, "init")
	ix, _ := s.InitialFor("x")
	iy, _ := s.InitialFor("y")
	iz, _ := s.InitialFor("z")

	step := func(name string, f func() (*State, event.Event, error)) event.Tag {
		t.Helper()
		ns, e, err := f()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		s = ns
		mustAudit(t, s, name)
		return e.Tag
	}
	wx := step("wrR x2", func() (*State, event.Event, error) { return s.StepWrite(2, true, "x", 2, ix) })
	step("wr y1", func() (*State, event.Event, error) { return s.StepWrite(2, false, "y", 1, iy) })
	step("rdA x", func() (*State, event.Event, error) { return s.StepRead(3, true, "x", wx) })
	wz := step("wr z3", func() (*State, event.Event, error) { return s.StepWrite(3, false, "z", 3, iz) })
	step("upd x", func() (*State, event.Event, error) { return s.StepRMW(1, "x", 4, wx) })
	step("upd y", func() (*State, event.Event, error) { return s.StepRMW(4, "y", 5, iy) })
	step("rd z", func() (*State, event.Event, error) { return s.StepRead(4, false, "z", wz) })
}

// TestIncrementalRandomWalks drives long random transition sequences
// over every rule and annotation mix and audits each state. The walk
// picks among all enabled read/write/update transitions uniformly, so
// mo splices into the middle of long mo chains, covered writes and
// multi-variable rf/fr fans all occur.
func TestIncrementalRandomWalks(t *testing.T) {
	rng := rand.New(rand.NewSource(1912))
	vars := []event.Var{"x", "y", "z"}
	for walk := 0; walk < 40; walk++ {
		s := Init(map[event.Var]event.Val{"x": 0, "y": 0, "z": 0})
		for step := 0; step < 14; step++ {
			th := event.Thread(1 + rng.Intn(3))
			x := vars[rng.Intn(len(vars))]
			var (
				ns  *State
				err error
			)
			switch rng.Intn(4) {
			case 0: // read (relaxed or acquiring)
				ow := s.ObservableFor(th, x)
				if len(ow) == 0 {
					continue
				}
				ns, _, err = s.StepRead(th, rng.Intn(2) == 0, x, ow[rng.Intn(len(ow))])
			case 1, 2: // write (relaxed or releasing)
				pts := s.InsertionPointsFor(th, x)
				if len(pts) == 0 {
					continue
				}
				ns, _, err = s.StepWrite(th, rng.Intn(2) == 0, x, event.Val(step+1), pts[rng.Intn(len(pts))])
			default: // update
				pts := s.InsertionPointsFor(th, x)
				if len(pts) == 0 {
					continue
				}
				ns, _, err = s.StepRMW(th, x, event.Val(step+1), pts[rng.Intn(len(pts))])
			}
			if err != nil {
				t.Fatalf("walk %d step %d: %v", walk, step, err)
			}
			s = ns
			mustAudit(t, s, "random walk")
		}
	}
}

// TestIncrementalColdAncestors forces derivation through a chain whose
// ancestors were never interrogated: closures must recurse up the
// provenance chain and still agree with scratch recomputation.
func TestIncrementalColdAncestors(t *testing.T) {
	s := Init(map[event.Var]event.Val{"x": 0, "y": 0})
	ix, _ := s.InitialFor("x")
	iy, _ := s.InitialFor("y")
	// Build a chain without querying any derived order in between:
	// drive the raw step functions with known-observable writes (each
	// new write is inserted after the current mo-maximum).
	s1, w1, err := s.StepWrite(1, true, "x", 1, ix)
	if err != nil {
		t.Fatal(err)
	}
	s2, _, err := s1.StepRead(2, true, "x", w1.Tag)
	if err != nil {
		t.Fatal(err)
	}
	s3, u, err := s2.StepRMW(2, "y", 7, iy)
	if err != nil {
		t.Fatal(err)
	}
	s4, _, err := s3.StepRMW(1, "y", 8, u.Tag)
	if err != nil {
		t.Fatal(err)
	}
	// Only now interrogate the deepest state.
	mustAudit(t, s4, "cold chain head")
	// And ancestors afterwards (their memos were warmed recursively).
	mustAudit(t, s3, "cold chain s3")
	mustAudit(t, s1, "cold chain s1")
}

// TestFingerprintAuditCatchesCorruption scribbles the fingerprint
// accumulator and checks that the incremental audit, which recomputes
// the fingerprint from scratch, reports it.
func TestFingerprintAuditCatchesCorruption(t *testing.T) {
	s := Init(map[event.Var]event.Val{"x": 0, "y": 0})
	ix, _ := s.InitialFor("x")
	s, _, err := s.StepWrite(1, false, "x", 1, ix)
	if err != nil {
		t.Fatal(err)
	}
	mustAudit(t, s, "before corruption")
	s.fpAcc.Lo++
	bad := s.AuditIncremental()
	if len(bad) != 1 || !strings.HasPrefix(bad[0], "fingerprint:") {
		t.Fatalf("audit of a corrupted fingerprint reported %q, want one fingerprint: mismatch", bad)
	}
}

// TestPositionAuditCatchesCorruption changes one event's stored
// canonical position and checks that the incremental audit reports it.
func TestPositionAuditCatchesCorruption(t *testing.T) {
	s := Init(map[event.Var]event.Val{"x": 0, "y": 0})
	ix, _ := s.InitialFor("x")
	iy, _ := s.InitialFor("y")
	s, _, err := s.StepWrite(1, false, "x", 1, ix)
	if err != nil {
		t.Fatal(err)
	}
	s, e, err := s.StepRead(1, false, "y", iy)
	if err != nil {
		t.Fatal(err)
	}
	mustAudit(t, s, "before corruption")
	if got := s.posOf(int(e.Tag)); got != 1 {
		t.Fatalf("second event of thread 1 stored at position %d", got)
	}
	s.events[e.Tag].pos = 0
	bad := s.AuditIncremental()
	if len(bad) != 1 || !strings.HasPrefix(bad[0], "pos:") {
		t.Fatalf("audit of a corrupted position reported %q, want one pos: mismatch", bad)
	}
}
