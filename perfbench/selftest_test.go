package main

// Self-test of the known-answer oracles: each kind of wrong answer is
// counted as a failed query by the same pass loop the benchmark runs,
// instead of passing silently. Run with `go test` in this directory.

import (
	"io"
	"testing"

	"repro/internal/explore"
	"repro/internal/litmus"
)

// failures runs one pass over qs and returns the failed-query count.
func failures(t *testing.T, qs ...query) int {
	t.Helper()
	r := &runner{s: &suite{queries: qs}, log: io.Discard}
	r.pass("self-test")
	if r.attempted != len(qs) {
		t.Fatalf("attempted %d queries, want %d", r.attempted, len(qs))
	}
	return r.failed
}

func catalogEntry(t *testing.T, name string) *litmus.Test {
	t.Helper()
	for _, tc := range litmus.Suite() {
		if tc.Name == name {
			return tc
		}
	}
	t.Fatalf("no litmus test %q", name)
	return nil
}

func TestKnownAnswersPass(t *testing.T) {
	ct := &catalogTest{t: catalogEntry(t, "MP+rel+acq")}
	n := failures(t,
		petersonQuery("peterson", litmus.Peterson, petersonOpts(smokeBound), explore.VerdictProved),
		petersonQuery("weak-turn", litmus.PetersonWeakTurn, petersonOpts(smokeBound), explore.VerdictViolated),
		writersQuery(3, writersOutcomes(3)),
		ct.query(rar), ct.query(scb))
	if n != 0 {
		t.Fatalf("%d of the unmodified queries failed", n)
	}
}

func TestCorruptedExpectationCounts(t *testing.T) {
	mp := *catalogEntry(t, "MP+rel+acq")
	// An outcome the catalog allows, declared forbidden.
	mp.Forbidden = append(append([]litmus.Outcome(nil), mp.Forbidden...), mp.Allowed[0])
	ct := &catalogTest{t: &mp}
	n := failures(t,
		ct.query(rar),
		petersonQuery("weak-turn", litmus.PetersonWeakTurn, petersonOpts(smokeBound), explore.VerdictProved))
	if n != 2 {
		t.Fatalf("%d failures, want 2", n)
	}
}

func TestBudgetCutCounts(t *testing.T) {
	opts := petersonOpts(smokeBound)
	opts.MaxConfigs = 50 // the search ends BOUNDED
	if n := failures(t, petersonQuery("peterson", litmus.Peterson, opts, explore.VerdictProved)); n != 1 {
		t.Fatalf("%d failures, want 1", n)
	}
}

func TestWrongOutcomeCounts(t *testing.T) {
	// Expecting the outcome read-read coherence forbids.
	want := writersOutcomes(3)
	want[litmus.Outcome{"r1": 1, "r2": 0}.Key(readerRegs)] = true
	// An SC outcome missing from the RAR set it is checked against.
	ct := &catalogTest{t: catalogEntry(t, "MP+rel+acq")}
	drop := query{name: "drop a RAR outcome", run: func(*layers) error {
		for k := range ct.rarOut {
			delete(ct.rarOut, k)
			break
		}
		return nil
	}}
	if n := failures(t, writersQuery(3, want), ct.query(rar), drop, ct.query(scb)); n != 2 {
		t.Fatalf("%d failures, want 2", n)
	}
}

func TestPanicCounts(t *testing.T) {
	if n := failures(t, query{name: "panics", run: func(*layers) error { panic("injected") }}); n != 1 {
		t.Fatalf("%d failures, want 1", n)
	}
}

// TestProbeReconciles checks that, without POR, the probe builds
// exactly the successors the engine's registry counts.
func TestProbeReconciles(t *testing.T) {
	l := &layers{probing: true}
	if err := writersQuery(3, writersOutcomes(3)).run(l); err != nil {
		t.Fatal(err)
	}
	if l.probeSucc == 0 || len(l.mismatches) > 0 {
		t.Fatalf("probe built %v successors: %v", l.probeSucc, l.mismatches)
	}
}
