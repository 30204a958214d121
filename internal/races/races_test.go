package races

import (
	"strings"
	"testing"

	"repro/internal/axiomatic"
	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/explore"
	"repro/internal/lang"
	"repro/internal/model"
)

// naMP builds message passing with non-atomic data accesses: the data
// variable d is written and read non-atomically; the flag f carries
// the synchronisation. sync selects the flag annotations.
func naMP(sync bool) (lang.Prog, map[event.Var]event.Val) {
	flagWrite := lang.AssignC("f", lang.V(1))
	flagRead := lang.X("f")
	if sync {
		flagWrite = lang.AssignRelC("f", lang.V(1))
		flagRead = lang.XA("f")
	}
	p := lang.Prog{
		lang.SeqC(lang.AssignNAC("d", lang.V(5)), flagWrite),
		lang.SeqC(
			lang.WhileC(lang.Eq(flagRead, lang.V(0)), lang.SkipC()),
			lang.AssignC("r", lang.XNA("d")),
		),
	}
	return p, map[event.Var]event.Val{"d": 0, "f": 0, "r": 0}
}

func TestNAEventsFlowThroughSemantics(t *testing.T) {
	s := core.Init(map[event.Var]event.Val{"d": 0})
	id, _ := s.InitialFor("d")
	s1, e, err := s.StepWriteKind(1, event.WrNA, "d", 5, id)
	if err != nil {
		t.Fatal(err)
	}
	if e.Act.Kind != event.WrNA || e.Atomic() {
		t.Fatalf("event = %v", e)
	}
	s2, r, err := s1.StepReadKind(2, event.RdNA, "d", e.Tag)
	if err != nil {
		t.Fatal(err)
	}
	if r.Act.Kind != event.RdNA || r.RdVal() != 5 {
		t.Fatalf("read = %v", r)
	}
	// NA accesses never synchronise.
	if !s2.SW().Empty() {
		t.Fatal("non-atomic rf must not synchronise")
	}
	// The state still satisfies the axioms (NA behaves like relaxed).
	if v := axiomatic.FromState(s2).Check(); v != nil {
		t.Fatalf("NA state invalid: %v", v)
	}
}

func TestStepKindRejectsWrongKinds(t *testing.T) {
	s := core.Init(map[event.Var]event.Val{"d": 0})
	id, _ := s.InitialFor("d")
	if _, _, err := s.StepReadKind(1, event.WrX, "d", id); err == nil {
		t.Fatal("read with write kind accepted")
	}
	if _, _, err := s.StepWriteKind(1, event.RdX, "d", 1, id); err == nil {
		t.Fatal("write with read kind accepted")
	}
	if _, _, err := s.StepReadKind(1, event.UpdRA, "d", id); err == nil {
		t.Fatal("read with update kind accepted")
	}
}

func TestOfDetectsUnorderedConflict(t *testing.T) {
	// Two threads touch d; thread 1 writes NA, thread 2 reads NA, no
	// synchronisation: racy.
	s := core.Init(map[event.Var]event.Val{"d": 0})
	id, _ := s.InitialFor("d")
	s, w, _ := s.StepWriteKind(1, event.WrNA, "d", 5, id)
	s, _, _ = s.StepReadKind(2, event.RdNA, "d", id)
	_ = w
	races := Of(axiomatic.FromState(s))
	if len(races) != 1 {
		t.Fatalf("races = %v", races)
	}
	if !strings.Contains(races[0].String(), "race between") {
		t.Fatal("String rendering")
	}
	if !Racy(axiomatic.FromState(s)) || !RacyState(s) {
		t.Fatal("Racy predicates disagree")
	}
}

func TestNoRaceWhenOrdered(t *testing.T) {
	// Same accesses but ordered through a release/acquire flag: no race.
	s := core.Init(map[event.Var]event.Val{"d": 0, "f": 0})
	id, _ := s.InitialFor("d")
	iff, _ := s.InitialFor("f")
	s, wd, _ := s.StepWriteKind(1, event.WrNA, "d", 5, id)
	s, wf, _ := s.StepWrite(1, true, "f", 1, iff)
	s, _, _ = s.StepRead(2, true, "f", wf.Tag)
	s, _, err := s.StepReadKind(2, event.RdNA, "d", wd.Tag)
	if err != nil {
		t.Fatal(err)
	}
	if Racy(axiomatic.FromState(s)) {
		t.Fatalf("hb-ordered NA accesses reported racy: %v", Of(axiomatic.FromState(s)))
	}
}

func TestNoRaceBetweenAtomics(t *testing.T) {
	// Concurrent relaxed atomics conflict but never race.
	s := core.Init(map[event.Var]event.Val{"x": 0})
	ix, _ := s.InitialFor("x")
	s, _, _ = s.StepWrite(1, false, "x", 1, ix)
	s, _, _ = s.StepRead(2, false, "x", ix)
	if Racy(axiomatic.FromState(s)) {
		t.Fatal("atomic accesses reported racy")
	}
}

func TestNoRaceSameThread(t *testing.T) {
	s := core.Init(map[event.Var]event.Val{"d": 0})
	id, _ := s.InitialFor("d")
	s, w, _ := s.StepWriteKind(1, event.WrNA, "d", 1, id)
	s, _, _ = s.StepReadKind(1, event.RdNA, "d", w.Tag)
	if Racy(axiomatic.FromState(s)) {
		t.Fatal("same-thread NA accesses reported racy")
	}
}

func TestReadReadNANotARace(t *testing.T) {
	// Two concurrent NA reads of the same location: no write, no race.
	s := core.Init(map[event.Var]event.Val{"d": 0})
	id, _ := s.InitialFor("d")
	s, _, _ = s.StepReadKind(1, event.RdNA, "d", id)
	s, _, _ = s.StepReadKind(2, event.RdNA, "d", id)
	if Racy(axiomatic.FromState(s)) {
		t.Fatal("read-read reported racy")
	}
}

// Synchronised NA message passing is race-free at every reachable
// state; the unsynchronised variant has a reachable race (undefined
// behaviour), with a short witness.
func TestNAMessagePassingRaceVerdicts(t *testing.T) {
	pSync, varsSync := naMP(true)
	free, truncated := RaceFree(core.NewConfig(pSync, varsSync), explore.Options{MaxEvents: 12})
	if !free {
		t.Fatal("synchronised NA message passing reported racy")
	}
	_ = truncated

	pRace, varsRace := naMP(false)
	trace, races, found := FindRace(core.NewConfig(pRace, varsRace), explore.Options{MaxEvents: 12})
	if !found {
		t.Fatal("unsynchronised NA message passing reported race-free")
	}
	if len(races) == 0 || len(trace.Configs) < 3 {
		t.Fatalf("degenerate witness: %v", races)
	}
	// The racy pair involves the NA data accesses.
	r := races[0]
	if r.A.Var() != "d" || r.A.Atomic() && r.B.Atomic() {
		t.Fatalf("unexpected race %v", r)
	}
}

// The language front end: NA assignments and loads round-trip through
// the interpreted semantics.
func TestNALanguageIntegration(t *testing.T) {
	p := lang.Prog{
		lang.AssignNAC("d", lang.V(1)),
		lang.AssignC("r", lang.XNA("d")),
	}
	cfg := core.NewConfig(p, map[event.Var]event.Val{"d": 0, "r": 0})
	// Workers 1: the closure mutates local state and the explorer
	// calls the property concurrently in parallel mode.
	sawNAWrite, sawNARead := false, false
	res := explore.Run(cfg, explore.Options{
		MaxEvents: 8,
		Workers:   1,
		Property: func(c model.Config) bool {
			for _, e := range c.(core.Config).S.Events() {
				switch e.Act.Kind {
				case event.WrNA:
					sawNAWrite = true
				case event.RdNA:
					sawNARead = true
				}
			}
			return true
		},
	})
	if res.Explored == 0 || !sawNAWrite || !sawNARead {
		t.Fatalf("NA events missing: write=%v read=%v", sawNAWrite, sawNARead)
	}
}

func BenchmarkRaceDetection(b *testing.B) {
	p, vars := naMP(true)
	cfg := core.NewConfig(p, vars)
	for i := 0; i < 8; i++ {
		succ := cfg.Successors()
		cfg = succ[len(succ)-1]
	}
	x := axiomatic.FromState(cfg.S)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if Racy(x) {
			b.Fatal("unexpected race")
		}
	}
}
