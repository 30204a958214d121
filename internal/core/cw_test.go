package core

// Tests of the covered-write row: CW_σ is kept in the index block and
// edited by rule RMW at build time, so it must equal the rf sources of
// the updates (§3.2) on every state, however the state was built.

import (
	"strings"
	"testing"

	"repro/internal/bits"
	"repro/internal/event"
	"repro/internal/lang"
)

// updateSources returns the rf sources of the updates of s, from the
// public event and rf views — independent of the row and of scratchCW.
func updateSources(s *State) bits.Set {
	n := s.NumEvents()
	out := bits.New(n)
	rf := s.RF()
	for _, e := range s.Events() {
		if !e.Act.Kind.IsUpdate() {
			continue
		}
		for i := 0; i < n; i++ {
			if rf.Has(i, int(e.Tag)) {
				out.Set(i)
			}
		}
	}
	return out
}

func checkCW(t *testing.T, s *State, at string) {
	t.Helper()
	if got, want := s.CoveredWrites(), updateSources(s); !got.Equal(want) {
		t.Fatalf("%s: CW = %s, want the update sources %s", at, got, want)
	}
}

// TestCoveredWritesRMWChain grows CW along a chain of updates and
// plain writes to one variable: each update covers the write it
// reads, a plain write covers nothing, and a covered write is no
// longer an insertion point.
func TestCoveredWritesRMWChain(t *testing.T) {
	s := Init(map[event.Var]event.Val{"x": 0})
	ix, _ := s.InitialFor("x")
	checkCW(t, s, "init")
	if !s.CoveredWrites().Empty() {
		t.Fatalf("init: CW = %s, want empty", s.CoveredWrites())
	}
	step := func(ns *State, e event.Event, err error) event.Tag {
		t.Helper()
		if err != nil {
			t.Fatalf("step to %d events: %v", s.NumEvents()+1, err)
		}
		s = ns
		at := e.String()
		checkCW(t, s, at)
		mustAudit(t, s, at)
		return e.Tag
	}
	u1 := step(s.StepRMW(1, "x", 1, ix))
	u2 := step(s.StepRMW(2, "x", 2, u1))
	w3 := step(s.StepWrite(1, true, "x", 3, u2))
	step(s.StepRMW(3, "x", 4, w3))
	want := bits.Of(s.NumEvents(), int(ix), int(u1), int(w3))
	if got := s.CoveredWrites(); !got.Equal(want) {
		t.Fatalf("after the chain: CW = %s, want %s", got, want)
	}
	for _, w := range []event.Tag{ix, u1, w3} {
		if _, _, err := s.StepRMW(1, "x", 9, w); err == nil {
			t.Fatalf("update after covered write %d accepted", w)
		}
	}
}

// TestCoveredWritesCAS explores a CAS racing a plain write and checks
// every transition of the CAS: the success face is an update and
// covers the write it reads, the failure face is an acquiring read and
// covers nothing. Every explored state, and its snapshot round trip,
// keeps CW equal to the update sources.
func TestCoveredWritesCAS(t *testing.T) {
	p := lang.Prog{
		lang.CasStmtC("x", lang.V(0), lang.V(1)),
		lang.AssignC("x", lang.V(2)),
	}
	root := NewConfig(p, map[event.Var]event.Val{"x": 0})
	var success, failure int
	for _, c := range collectConfigs(root, 100) {
		checkCW(t, c.S, c.Key())
		r, err := Model.Restore(p, c.AppendSnapshot(nil))
		if err != nil {
			t.Fatalf("%s: restore: %v", c.Key(), err)
		}
		if got, want := r.(Config).S.CoveredWrites(), c.S.CoveredWrites(); !got.Equal(want) {
			t.Fatalf("%s: restored CW = %s, want %s", c.Key(), got, want)
		}
		for _, ps := range c.Node().Steps() {
			if ps.S.Kind != lang.StepCas {
				continue
			}
			for _, succ := range c.AppendStepSuccessors(nil, ps) {
				s := succ.S
				g := s.NumEvents() - 1
				want := c.S.CoveredWrites().Grow(s.NumEvents())
				switch k := s.Event(event.Tag(g)).Act.Kind; {
				case k == event.UpdRA:
					success++
					want.Set(int(s.events[g].rf))
				case k == event.RdAcq:
					failure++
				default:
					t.Fatalf("CAS appended a %v event", k)
				}
				if got := s.CoveredWrites(); !got.Equal(want) {
					t.Fatalf("CAS to %s: CW = %s, want %s", s.Event(event.Tag(g)), got, want)
				}
			}
		}
	}
	if success == 0 || failure == 0 {
		t.Fatalf("CAS faces not both exercised: %d successes, %d failures", success, failure)
	}
}

// TestCoveredWritesAuditCatchesCorruption flips a bit of one built
// state's CW row and checks that the incremental audit reports it.
func TestCoveredWritesAuditCatchesCorruption(t *testing.T) {
	s := Init(map[event.Var]event.Val{"x": 0})
	ix, _ := s.InitialFor("x")
	s, u, err := s.StepRMW(1, "x", 1, ix)
	if err != nil {
		t.Fatal(err)
	}
	mustAudit(t, s, "before corruption")
	cw := s.coveredRow()
	cw.Set(int(u.Tag)) // u is not read by any update
	bad := s.AuditIncremental()
	if len(bad) != 1 || !strings.HasPrefix(bad[0], "cw:") {
		t.Fatalf("audit of a corrupted CW row reported %q, want one cw: mismatch", bad)
	}
}
