package explore

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/fingerprint"
	"repro/internal/lang"
	"repro/internal/model"
)

func mpConfig() core.Config {
	p := lang.Prog{
		lang.SeqC(lang.AssignC("d", lang.V(5)), lang.AssignRelC("f", lang.V(1))),
		lang.SeqC(lang.AssignC("a", lang.XA("f")), lang.AssignC("b", lang.X("d"))),
	}
	return core.NewConfig(p, map[event.Var]event.Val{"d": 0, "f": 0, "a": 0, "b": 0})
}

// petersonProg is Peterson's mutual-exclusion algorithm in its correct
// release-acquire form — the E13 workload, rebuilt here because the
// litmus catalog sits above this package. Kept structurally identical
// to litmus.Peterson.
func petersonProg() (lang.Prog, map[event.Var]event.Val) {
	thread := func(t int) lang.Com {
		other := 3 - t
		me := event.Var(fmt.Sprintf("flag%d", t))
		you := event.Var(fmt.Sprintf("flag%d", other))
		guard := lang.And(
			lang.Eq(lang.XA(you), lang.B(true)),
			lang.Eq(lang.X("turn"), lang.V(event.Val(other))),
		)
		return lang.SeqC(
			lang.AssignC(me, lang.B(true)),
			lang.SwapC("turn", event.Val(other)),
			lang.WhileC(guard, lang.SkipC()),
			lang.LabelC("cs", lang.SkipC()),
			lang.AssignRelC(me, lang.B(false)),
		)
	}
	return lang.Prog{thread(1), thread(2)},
		map[event.Var]event.Val{"flag1": 0, "flag2": 0, "turn": 1}
}

func TestRunSerialBasics(t *testing.T) {
	res := Run(mpConfig(), Options{Workers: 1})
	if res.Explored == 0 || res.Terminated == 0 {
		t.Fatalf("res = %+v", res)
	}
	if res.Truncated {
		t.Fatal("loop-free program should not truncate")
	}
	if res.Violation != nil {
		t.Fatal("no property given, yet violation reported")
	}
	if res.Depth < 6 { // 6 statements minimum
		t.Fatalf("depth = %d", res.Depth)
	}
}

func TestRunParallelMatchesSerial(t *testing.T) {
	s := Run(mpConfig(), Options{Workers: 1})
	p := Run(mpConfig(), Options{Workers: 8})
	if s.Explored != p.Explored || s.Terminated != p.Terminated ||
		s.Depth != p.Depth || s.Truncated != p.Truncated {
		t.Fatalf("serial %+v != parallel %+v", s, p)
	}
}

func TestCheckCollisionsMatchesFastPath(t *testing.T) {
	// The audited search must visit the same state space as the plain
	// one, and the audit must find no collisions.
	fast := Run(mpConfig(), Options{Workers: 1})
	for _, workers := range []int{1, 8} {
		slow := Run(mpConfig(), Options{Workers: workers, CheckCollisions: true})
		if slow.FingerprintCollisions != 0 {
			t.Fatalf("workers=%d: %d fingerprint collisions", workers, slow.FingerprintCollisions)
		}
		if slow.Explored != fast.Explored || slow.Terminated != fast.Terminated ||
			slow.Depth != fast.Depth {
			t.Fatalf("workers=%d: slow %+v != fast %+v", workers, slow, fast)
		}
	}
}

// TestKeyAuditCountsDistinctCollidingKeys drives the collector with a
// forged collision: a second key under a known fingerprint counts once
// however often it recurs, and re-observing a key is not a collision.
func TestKeyAuditCountsDistinctCollidingKeys(t *testing.T) {
	a := newKeyAudit()
	fp, other := fingerprint.FP{Hi: 1, Lo: 2}, fingerprint.FP{Hi: 3, Lo: 4}
	for _, obs := range []struct {
		fp  fingerprint.FP
		key string
	}{{fp, "a"}, {fp, "a"}, {other, "c"}, {fp, "b"}, {fp, "b"}, {other, "c"}} {
		a.observe(obs.fp, obs.key)
	}
	if n := a.collisions(); n != 1 {
		t.Fatalf("collisions = %d, want 1", n)
	}
	if n := (*keyAudit)(nil).collisions(); n != 0 {
		t.Fatalf("disabled audit reports %d collisions", n)
	}
}

func TestPropertyViolationStopsSearch(t *testing.T) {
	res := Run(mpConfig(), Options{
		Workers:  1,
		Property: func(c model.Config) bool { return c.(core.Config).S.NumEvents() < 6 },
	})
	if res.Violation == nil {
		t.Fatal("expected a violation")
	}
	if res.Violation.(core.Config).S.NumEvents() < 6 {
		t.Fatal("violation config does not falsify the property")
	}
	// Parallel flavour too.
	res2 := Run(mpConfig(), Options{
		Workers:  4,
		Property: func(c model.Config) bool { return c.(core.Config).S.NumEvents() < 6 },
	})
	if res2.Violation == nil {
		t.Fatal("parallel run missed the violation")
	}
}

// TestPanickingPropertyRecordedOnce: a property that panics on one
// configuration reached along several paths is called, and its panic
// recorded, once — the first admission keeps the configuration in the
// seen-set, so every later path to it is a dedup hit. The panic leaves
// its parent claimed, so the search is degraded to BOUNDED, with no
// violation.
func TestPanickingPropertyRecordedOnce(t *testing.T) {
	goal, found := FindTrace(mpConfig(), Options{}, func(c model.Config) bool { return c.Terminated() })
	if !found {
		t.Fatal("no terminated configuration")
	}
	target := goal.Configs[len(goal.Configs)-1].Fingerprint()
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			res := Run(mpConfig(), Options{
				Workers: workers,
				TypedProperty: func(c core.Config) bool {
					if c.Fingerprint() == target {
						panic("injected")
					}
					return true
				},
			})
			if len(res.Panics) != 1 || res.Verdict != VerdictBounded || res.Violation != nil {
				t.Fatalf("%d panics, verdict %v, violation %v; want 1, BOUNDED, none",
					len(res.Panics), res.Verdict, res.Violation)
			}
		})
	}
}

func TestEventBoundTruncates(t *testing.T) {
	// Infinite loop: while (x = 0) skip. Must truncate, not hang.
	p := lang.Prog{lang.WhileC(lang.Eq(lang.X("x"), lang.V(0)), lang.SkipC())}
	c := core.NewConfig(p, map[event.Var]event.Val{"x": 0})
	res := Run(c, Options{MaxEvents: 5, Workers: 1})
	if !res.Truncated {
		t.Fatal("unbounded loop did not truncate")
	}
	res2 := Run(c, Options{MaxEvents: 5, Workers: 4})
	if !res2.Truncated {
		t.Fatal("parallel run did not truncate")
	}
}

func TestMaxConfigsBound(t *testing.T) {
	res := Run(mpConfig(), Options{MaxConfigs: 10, Workers: 1})
	if !res.Truncated {
		t.Fatal("config bound not honoured")
	}
	res2 := Run(mpConfig(), Options{MaxConfigs: 10, Workers: 4})
	if !res2.Truncated {
		t.Fatal("parallel config bound not honoured")
	}
}

func TestFindTraceShortestWitness(t *testing.T) {
	// Find a terminated state; trace must start at the root and end at
	// a terminated configuration, with strictly growing event counts
	// on non-silent steps.
	trace, found := FindTrace(mpConfig(), Options{}, func(c model.Config) bool {
		return c.Terminated()
	})
	if !found {
		t.Fatal("no terminated state found")
	}
	first := trace.Configs[0].(core.Config)
	if first.S.NumEvents() != 4 {
		t.Fatalf("trace does not start at the root: %d events", first.S.NumEvents())
	}
	if !trace.Configs[len(trace.Configs)-1].Terminated() {
		t.Fatal("trace does not end at a goal state")
	}
	// BFS gives a shortest path: MP needs 6 actions + ≥0 silent steps.
	if len(trace.Configs) < 7 {
		t.Fatalf("trace too short: %d", len(trace.Configs))
	}
}

// TestFindTraceIsAPath: the witness walked back through the parent
// links is a real path — every configuration is a successor of the one
// before it — and a goal at the root is a one-configuration trace.
func TestFindTraceIsAPath(t *testing.T) {
	trace, found := FindTrace(mpConfig(), Options{}, func(c model.Config) bool {
		return c.(core.Config).S.NumEvents() == 8
	})
	if !found {
		t.Fatal("no witness")
	}
	if trace.Configs[0].Fingerprint() != mpConfig().Fingerprint() {
		t.Fatal("trace does not start at the root")
	}
	for i := 1; i < len(trace.Configs); i++ {
		want := trace.Configs[i].Fingerprint()
		step := false
		for _, s := range trace.Configs[i-1].(core.Config).Successors() {
			step = step || s.Fingerprint() == want
		}
		if !step {
			t.Fatalf("configuration %d is not a successor of configuration %d", i, i-1)
		}
	}

	root, found := FindTrace(mpConfig(), Options{}, func(model.Config) bool { return true })
	if !found || len(root.Configs) != 1 {
		t.Fatalf("goal at the root: found=%v, %d configurations", found, len(root.Configs))
	}
}

func TestFindTraceAbsent(t *testing.T) {
	if _, found := FindTrace(mpConfig(), Options{}, func(c model.Config) bool {
		return c.(core.Config).S.NumEvents() > 1000
	}); found {
		t.Fatal("found impossible goal")
	}
}

// outcomes explores c and returns the set of summaries of its
// terminated configurations, collected by a property that never fails.
func outcomes(c model.Config, opts Options, summarise func(model.Config) string) map[string]bool {
	out := map[string]bool{}
	var mu sync.Mutex
	opts.Property = func(cfg model.Config) bool {
		if cfg.Terminated() {
			key := summarise(cfg)
			mu.Lock()
			out[key] = true
			mu.Unlock()
		}
		return true
	}
	Run(c, opts)
	return out
}

func TestOutcomes(t *testing.T) {
	for name, opts := range map[string]Options{
		"plain": {},
		// POR prunes commuting interleavings but keeps every
		// terminated configuration.
		"por": {POR: true},
	} {
		t.Run(name, func(t *testing.T) {
			out := outcomes(mpConfig(), opts, func(c model.Config) string {
				s := c.(core.Config).S
				ga, _ := s.Last("a")
				gb, _ := s.Last("b")
				return s.Event(ga).Act.String() + s.Event(gb).Act.String()
			})
			if len(out) != 3 {
				t.Fatalf("outcomes = %v", out)
			}
			if out["wr(a,1)wr(b,0)"] {
				t.Fatal("MP stale outcome reachable")
			}
		})
	}
}

// TestTypedPropertyMisuse: a property the engine would silently ignore
// is a programming error, not a PROVED verdict.
func TestTypedPropertyMisuse(t *testing.T) {
	for name, opts := range map[string]Options{
		"wrong-type": {TypedProperty: func(model.Config) bool { return false }},
		"both-set": {
			Property:      func(model.Config) bool { return false },
			TypedProperty: func(core.Config) bool { return false },
		},
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("Run did not panic")
				}
			}()
			Run(mpConfig(), opts)
		})
	}
}

func TestDefaultOptionValues(t *testing.T) {
	var o Options
	if o.maxEvents() != 24 || o.maxConfigs() != 1<<20 || o.workers() < 1 {
		t.Fatalf("defaults: %d %d %d", o.maxEvents(), o.maxConfigs(), o.workers())
	}
	o = Options{MaxEvents: 3, MaxConfigs: 7, Workers: 2}
	if o.maxEvents() != 3 || o.maxConfigs() != 7 || o.workers() != 2 {
		t.Fatal("explicit options not honoured")
	}
}

func TestTraceDescribe(t *testing.T) {
	trace, found := FindTrace(mpConfig(), Options{}, func(c model.Config) bool {
		return c.Terminated()
	})
	if !found {
		t.Fatal("no trace")
	}
	out := trace.Describe()
	if !strings.Contains(out, "start:") {
		t.Fatalf("missing start line:\n%s", out)
	}
	// Both event-labelled and τ steps appear.
	if !strings.Contains(out, "wr(d,5)") || !strings.Contains(out, "τ") {
		t.Fatalf("missing step labels:\n%s", out)
	}
	lines := strings.Count(out, "\n")
	if lines != len(trace.Configs) {
		t.Fatalf("line count %d != %d configs", lines, len(trace.Configs))
	}
}
