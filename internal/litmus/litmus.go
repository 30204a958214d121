// Package litmus provides the classic weak-memory litmus tests
// expressed in the paper's command language, with their expected
// verdicts per memory model — the RAR fragment of internal/core and
// the SC backend of internal/sc — plus the Peterson mutual-exclusion
// programs of Algorithm 1 (and deliberately weakened variants used as
// negative controls). Each test runs through the model-generic
// explorer under a chosen backend; Compare runs it under RAR and SC and
// reports the outcome-set difference (the weak behaviours) and whether
// SC ⊆ RA refinement broke.
// At litmus sizes the RAR verdicts are additionally cross-checked
// against the axiomatic generate-and-test baseline.
package litmus

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/explore"
	"repro/internal/lang"
	"repro/internal/model"
)

// Outcome is an assignment of final values to observed variables. The
// final value of a variable is the value of its mo-last write.
type Outcome map[event.Var]event.Val

// Key renders the outcome over the observed variables, in the same
// format Report.Outcomes uses.
func (o Outcome) Key(observe []event.Var) string { return o.key(observe) }

func (o Outcome) key(observe []event.Var) string {
	var b []byte
	for _, x := range observe {
		b = event.AppendOutcome(b, x, o[x])
	}
	return string(b)
}

// Test is one litmus test.
type Test struct {
	// Name identifies the test (e.g. "MP+rel+acq").
	Name string
	// Prog and Init define the program and initial memory.
	Prog lang.Prog
	Init map[event.Var]event.Val
	// Observe lists the variables whose final values form an outcome.
	Observe []event.Var
	// Allowed outcomes must be reachable; Forbidden must not. These
	// are the expectations under the RAR model (the paper's
	// semantics, the default backend).
	Allowed   []Outcome
	Forbidden []Outcome
	// SCAllowed and SCForbidden are the expectations under the SC
	// backend where they differ from (or sharpen) the RAR ones. SC
	// refines RAR, so under SC every Forbidden outcome stays
	// forbidden and SCForbidden adds the weak outcomes SC rules out;
	// SCAllowed lists outcomes that must still be reachable. Tests
	// with nil SC fields are checked for refinement only.
	SCAllowed   []Outcome
	SCForbidden []Outcome
	// MaxEvents bounds exploration (0: default; ignored by backends
	// whose configurations make no progress, like SC).
	MaxEvents int
}

// Expectations returns the allowed and forbidden outcome sets for the
// named model ("rar", "sc"): the catalog's per-model verdicts.
func (t *Test) Expectations(modelName string) (allowed, forbidden []Outcome) {
	if modelName == "sc" {
		allowed = t.SCAllowed
		forbidden = append(append([]Outcome(nil), t.Forbidden...), t.SCForbidden...)
		return allowed, forbidden
	}
	return t.Allowed, t.Forbidden
}

// Report is the verdict of running a test.
type Report struct {
	Test *Test
	// Model names the backend the test ran under.
	Model    string
	Outcomes map[string]bool // reachable outcome keys
	// MissingAllowed and ReachedForbidden list violated expectations.
	MissingAllowed   []string
	ReachedForbidden []string
	Explored         int
	Truncated        bool
}

// Pass reports whether every expectation held.
func (r Report) Pass() bool {
	return len(r.MissingAllowed) == 0 && len(r.ReachedForbidden) == 0
}

// Summary renders a one-line verdict.
func (r Report) Summary() string {
	verdict := "PASS"
	if !r.Pass() {
		verdict = "FAIL"
	}
	keys := make([]string, 0, len(r.Outcomes))
	for k := range r.Outcomes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return fmt.Sprintf("%-24s %-4s %s  outcomes=%d explored=%d %s",
		r.Test.Name, r.Model, verdict, len(r.Outcomes), r.Explored, strings.Join(keys, " "))
}

// Run explores the test under the RAR backend and checks the RAR
// expectations. Shorthand for RunModel(core.Model, opts).
func (t *Test) Run(opts explore.Options) Report {
	return t.RunModel(core.Model, opts)
}

// RunModel explores the test under the given memory model and checks
// the model's expectations from the catalog.
func (t *Test) RunModel(m model.Model, opts explore.Options) Report {
	if opts.MaxEvents == 0 {
		opts.MaxEvents = t.MaxEvents
	}
	rep := Report{Test: t, Model: m.Name()}

	cfg := m.New(t.Prog, t.Init)
	res, outcomes := runOutcomes(cfg, t.Observe, opts)
	rep.Outcomes = outcomes
	rep.Explored = res.Explored
	// A budget stop leaves the outcome set partial exactly like a bound
	// cut does; expectations are then relative to what was explored.
	rep.Truncated = res.Truncated || res.Stop != explore.StopNone

	rep.MissingAllowed, rep.ReachedForbidden = t.CheckOutcomes(m.Name(), rep.Outcomes)
	return rep
}

// CheckOutcomes evaluates the named model's catalog expectations
// against an already-computed outcome set (keys in the Summarise
// format), returning the violated ones, without re-exploring.
func (t *Test) CheckOutcomes(modelName string, outcomes map[string]bool) (missingAllowed, reachedForbidden []string) {
	allowed, forbidden := t.Expectations(modelName)
	for _, o := range allowed {
		if !outcomes[o.key(t.Observe)] {
			missingAllowed = append(missingAllowed, o.key(t.Observe))
		}
	}
	for _, o := range forbidden {
		if outcomes[o.key(t.Observe)] {
			reachedForbidden = append(reachedForbidden, o.key(t.Observe))
		}
	}
	return missingAllowed, reachedForbidden
}

// runOutcomes explores cfg and gathers the terminated outcome set
// over the observed variables, through the model's shared Summarise
// format so keys are comparable across backends.
func runOutcomes(cfg model.Config, observe []event.Var, opts explore.Options) (explore.Result, map[string]bool) {
	outcomes := map[string]bool{}
	var mu sync.Mutex
	o := opts
	// The property runs concurrently under a parallel explorer; the
	// outcome set is the only shared state and is mutex-guarded.
	o.Property = func(c model.Config) bool {
		if c.Terminated() {
			key := c.Summarise(observe)
			mu.Lock()
			outcomes[key] = true
			mu.Unlock()
		}
		return true
	}
	res := explore.Run(cfg, o)
	return res, outcomes
}

// seqAsn builds var := e chains tersely.
func wr(x event.Var, v event.Val) lang.Com  { return lang.AssignC(x, lang.V(v)) }
func wrR(x event.Var, v event.Val) lang.Com { return lang.AssignRelC(x, lang.V(v)) }
func rd(dst, src event.Var) lang.Com        { return lang.AssignC(dst, lang.X(src)) }
func rdA(dst, src event.Var) lang.Com       { return lang.AssignC(dst, lang.XA(src)) }

// Suite returns the full litmus catalog.
func Suite() []*Test {
	zero := func(xs ...event.Var) map[event.Var]event.Val {
		m := map[event.Var]event.Val{}
		for _, x := range xs {
			m[x] = 0
		}
		return m
	}
	return []*Test{
		{
			Name: "MP+rel+acq",
			Prog: lang.Prog{
				lang.SeqC(wr("d", 5), wrR("f", 1)),
				lang.SeqC(rdA("a", "f"), rd("b", "d")),
			},
			Init:    zero("d", "f", "a", "b"),
			Observe: []event.Var{"a", "b"},
			Allowed: []Outcome{
				{"a": 0, "b": 0}, {"a": 0, "b": 5}, {"a": 1, "b": 5},
			},
			Forbidden: []Outcome{{"a": 1, "b": 0}},
			// Release/acquire already restores message passing, so the
			// models agree on this test.
			SCAllowed: []Outcome{
				{"a": 0, "b": 0}, {"a": 0, "b": 5}, {"a": 1, "b": 5},
			},
		},
		{
			Name: "MP+rlx+rlx",
			Prog: lang.Prog{
				lang.SeqC(wr("d", 5), wr("f", 1)),
				lang.SeqC(rd("a", "f"), rd("b", "d")),
			},
			Init:    zero("d", "f", "a", "b"),
			Observe: []event.Var{"a", "b"},
			Allowed: []Outcome{
				{"a": 1, "b": 0}, // the stale read is allowed relaxed
				{"a": 1, "b": 5},
			},
			// SC restores message passing even without annotations:
			// the stale read is the RA/SC divergence on this test.
			SCAllowed:   []Outcome{{"a": 1, "b": 5}, {"a": 0, "b": 0}},
			SCForbidden: []Outcome{{"a": 1, "b": 0}},
		},
		{
			Name: "SB+rel+acq",
			Prog: lang.Prog{
				lang.SeqC(wrR("x", 1), rdA("a", "y")),
				lang.SeqC(wrR("y", 1), rdA("b", "x")),
			},
			Init:    zero("x", "y", "a", "b"),
			Observe: []event.Var{"a", "b"},
			Allowed: []Outcome{
				{"a": 0, "b": 0}, // RA is weaker than SC
				{"a": 1, "b": 1},
				{"a": 0, "b": 1},
				{"a": 1, "b": 0},
			},
			// Store buffering is *the* RA/SC divergence: under SC one
			// of the two writes is always visible to the later read.
			SCAllowed: []Outcome{
				{"a": 1, "b": 1}, {"a": 0, "b": 1}, {"a": 1, "b": 0},
			},
			SCForbidden: []Outcome{{"a": 0, "b": 0}},
		},
		{
			Name: "LB+rlx+rlx",
			Prog: lang.Prog{
				lang.SeqC(rd("a", "x"), wr("y", 1)),
				lang.SeqC(rd("b", "y"), wr("x", 1)),
			},
			Init:      zero("x", "y", "a", "b"),
			Observe:   []event.Var{"a", "b"},
			Allowed:   []Outcome{{"a": 0, "b": 0}, {"a": 0, "b": 1}, {"a": 1, "b": 0}},
			Forbidden: []Outcome{{"a": 1, "b": 1}}, // sb ∪ rf acyclic
			// RAR already forbids load buffering, so the models agree.
			SCAllowed: []Outcome{{"a": 0, "b": 0}, {"a": 0, "b": 1}, {"a": 1, "b": 0}},
		},
		{
			Name: "CoRR",
			Prog: lang.Prog{
				wr("x", 1),
				lang.SeqC(rd("a", "x"), rd("b", "x")),
			},
			Init:      zero("x", "a", "b"),
			Observe:   []event.Var{"a", "b"},
			Allowed:   []Outcome{{"a": 0, "b": 0}, {"a": 0, "b": 1}, {"a": 1, "b": 1}},
			Forbidden: []Outcome{{"a": 1, "b": 0}},
		},
		{
			Name: "CoWW",
			Prog: lang.Prog{
				lang.SeqC(wr("x", 1), wr("x", 2)),
			},
			Init:      zero("x"),
			Observe:   []event.Var{"x"},
			Allowed:   []Outcome{{"x": 2}},
			Forbidden: []Outcome{{"x": 1}, {"x": 0}},
		},
		{
			Name: "CoWR",
			Prog: lang.Prog{
				lang.SeqC(wr("x", 1), rd("a", "x")),
				wr("x", 2),
			},
			Init:    zero("x", "a"),
			Observe: []event.Var{"a"},
			Allowed: []Outcome{{"a": 1}, {"a": 2}},
			// Reading the initial 0 after writing 1 violates coherence.
			Forbidden: []Outcome{{"a": 0}},
		},
		{
			Name: "2+2W",
			Prog: lang.Prog{
				lang.SeqC(wr("x", 1), wr("y", 2)),
				lang.SeqC(wr("y", 1), wr("x", 2)),
			},
			Init:    zero("x", "y"),
			Observe: []event.Var{"x", "y"},
			Allowed: []Outcome{
				{"x": 1, "y": 1}, // both final writes "early": allowed relaxed
				{"x": 2, "y": 2},
				{"x": 1, "y": 2},
				{"x": 2, "y": 1},
			},
			// Under SC both "early" finals would need each thread's
			// second write to precede the other's first: a cycle.
			SCAllowed: []Outcome{
				{"x": 2, "y": 2}, {"x": 1, "y": 2}, {"x": 2, "y": 1},
			},
			SCForbidden: []Outcome{{"x": 1, "y": 1}},
		},
		{
			Name: "IRIW+rel+acq",
			Prog: lang.Prog{
				wrR("x", 1),
				wrR("y", 1),
				lang.SeqC(rdA("a", "x"), rdA("b", "y")),
				lang.SeqC(rdA("c", "y"), rdA("d", "x")),
			},
			Init:    zero("x", "y", "a", "b", "c", "d"),
			Observe: []event.Var{"a", "b", "c", "d"},
			// The two readers may disagree on the write order: RA does
			// not guarantee multi-copy atomicity.
			Allowed: []Outcome{{"a": 1, "b": 0, "c": 1, "d": 0}},
			// SC is multi-copy atomic: the readers must agree.
			SCAllowed:   []Outcome{{"a": 1, "b": 1, "c": 1, "d": 1}},
			SCForbidden: []Outcome{{"a": 1, "b": 0, "c": 1, "d": 0}},
		},
		{
			Name: "RMW-atomicity",
			Prog: lang.Prog{
				lang.SwapC("t", 1),
				lang.SwapC("t", 2),
			},
			Init:    zero("t"),
			Observe: []event.Var{"t"},
			// Both orders allowed, but the updates serialize.
			Allowed: []Outcome{{"t": 1}, {"t": 2}},
		},
		{
			Name: "WRC+rel+acq", // write-to-read causality
			Prog: lang.Prog{
				wrR("x", 1),
				lang.SeqC(rdA("a", "x"), wrR("y", 1)),
				lang.SeqC(rdA("b", "y"), rdA("c", "x")),
			},
			Init:    zero("x", "y", "a", "b", "c"),
			Observe: []event.Var{"a", "b", "c"},
			// Causality is cumulative through sw;sb chains: if t2 saw
			// x=1 and t3 saw t2's y=1, t3 must see x=1.
			Forbidden: []Outcome{{"a": 1, "b": 1, "c": 0}},
			Allowed:   []Outcome{{"a": 1, "b": 1, "c": 1}, {"a": 1, "b": 0, "c": 0}},
		},
		{
			Name: "WRC+rlx",
			Prog: lang.Prog{
				wr("x", 1),
				lang.SeqC(rd("a", "x"), wr("y", 1)),
				lang.SeqC(rd("b", "y"), rd("c", "x")),
			},
			Init:    zero("x", "y", "a", "b", "c"),
			Observe: []event.Var{"a", "b", "c"},
			// Without synchronisation the causality chain is gone.
			Allowed: []Outcome{{"a": 1, "b": 1, "c": 0}},
			// SC has causality built in, annotations or not.
			SCAllowed:   []Outcome{{"a": 1, "b": 1, "c": 1}},
			SCForbidden: []Outcome{{"a": 1, "b": 1, "c": 0}},
		},
		{
			Name: "S+rel+acq",
			Prog: lang.Prog{
				lang.SeqC(wr("x", 2), wrR("y", 1)),
				lang.SeqC(rdA("a", "y"), wr("x", 1)),
			},
			Init:    zero("x", "y", "a"),
			Observe: []event.Var{"a", "x"},
			// a=1 puts wr(x,2) hb-before wr(x,1), so mo must agree:
			// the final value of x cannot be 2.
			Forbidden: []Outcome{{"a": 1, "x": 2}},
			Allowed:   []Outcome{{"a": 1, "x": 1}, {"a": 0, "x": 1}, {"a": 0, "x": 2}},
		},
		{
			Name: "ISA2+rel+acq",
			Prog: lang.Prog{
				lang.SeqC(wr("x", 1), wrR("y", 1)),
				lang.SeqC(rdA("a", "y"), wrR("z", 1)),
				lang.SeqC(rdA("b", "z"), rdA("c", "x")),
			},
			Init:    zero("x", "y", "a", "b", "c", "z"),
			Observe: []event.Var{"a", "b", "c"},
			// The sw;sb;sw chain transports the relaxed write of x.
			Forbidden: []Outcome{{"a": 1, "b": 1, "c": 0}},
			Allowed:   []Outcome{{"a": 1, "b": 1, "c": 1}},
		},
		{
			Name: "W+RWC", // writes seen out of order without sync
			Prog: lang.Prog{
				lang.SeqC(wr("x", 1), wrR("f", 1)),
				lang.SeqC(rdA("a", "f"), rd("b", "x")),
				rd("c", "x"),
			},
			Init:    zero("x", "f", "a", "b", "c"),
			Observe: []event.Var{"a", "b", "c"},
			// Synchronised reader must see x=1 after f=1...
			Forbidden: []Outcome{
				{"a": 1, "b": 0, "c": 0}, {"a": 1, "b": 0, "c": 1},
			},
			// ...while the unsynchronised one may still see 0.
			Allowed: []Outcome{{"a": 1, "b": 1, "c": 0}},
		},

		// The Gen-* tests below were found by the random program
		// generator (c11 fuzz) and promoted from its stream: each
		// exhibits a weak behaviour — an RA-reachable, SC-forbidden
		// outcome — through a shape the hand-written tests above do
		// not cover (RMW mixed with plain writes, arithmetic guards,
		// non-atomic writes, negative values). The verdicts are the
		// exact outcome sets of exhaustive explorations under both
		// backends; the same programs ship as testdata/gen-*.lit. Each
		// is regenerable: c11 fuzz -seed <s> -n 1.
		{
			Name: "Gen-2+2W-late", // c11 fuzz seed 66
			Prog: lang.Prog{
				lang.SeqC(rd("r1_0", "x1"), wr("x0", 2)),
				lang.SeqC(wr("x0", 1), wr("x1", 2), rd("r2_0", "x1")),
			},
			Init:    zero("r1_0", "r2_0", "x0", "x1"),
			Observe: []event.Var{"r1_0", "r2_0", "x0", "x1"},
			// The weak outcome: thread 1 already sees x1=2 yet its
			// earlier-in-mo write x0:=2 loses to thread 2's x0:=1 —
			// a 2+2W-flavoured final-value inversion across threads.
			Allowed: []Outcome{
				{"r1_0": 2, "r2_0": 2, "x0": 1, "x1": 2},
				{"r1_0": 0, "r2_0": 2, "x0": 2, "x1": 2},
			},
			// Thread 2 reads its own x1:=2 back: coherence.
			Forbidden: []Outcome{{"r1_0": 0, "r2_0": 0, "x0": 1, "x1": 2}},
			SCAllowed: []Outcome{
				{"r1_0": 0, "r2_0": 2, "x0": 1, "x1": 2},
				{"r1_0": 2, "r2_0": 2, "x0": 2, "x1": 2},
			},
			SCForbidden: []Outcome{{"r1_0": 2, "r2_0": 2, "x0": 1, "x1": 2}},
		},
		{
			Name: "Gen-swap-mo", // c11 fuzz seed 3
			Prog: lang.Prog{
				lang.SeqC(
					wr("x1", 1),
					rd("r1_0", "x0"),
					lang.AssignC("x1", lang.Bin{Op: lang.OpLt, L: lang.X("x0"), R: lang.V(2)}),
					lang.SwapC("x0", 1)),
				lang.SeqC(
					lang.AssignNAC("x1", lang.V(-2)),
					wr("x1", 2),
					wrR("x0", 1)),
			},
			Init:    zero("r1_0", "x0", "x1"),
			Observe: []event.Var{"r1_0", "x0", "x1"},
			// Weak: thread 1 reads x0=1 (so its swap serialised after
			// the release write) yet x1's final value is thread 2's
			// earlier x1:=2 — impossible under any interleaving.
			Allowed: []Outcome{
				{"r1_0": 1, "x0": 1, "x1": 2},
				{"r1_0": 0, "x0": 1, "x1": 1},
			},
			// The non-atomic x1:=-2 is always overwritten by thread
			// 2's own x1:=2 in mo: it can never be the final value.
			Forbidden: []Outcome{{"r1_0": 0, "x0": 1, "x1": -2}},
			SCAllowed: []Outcome{
				{"r1_0": 0, "x0": 1, "x1": 2},
				{"r1_0": 1, "x0": 1, "x1": 1},
			},
			SCForbidden: []Outcome{{"r1_0": 1, "x0": 1, "x1": 2}},
		},
		{
			Name: "Gen-swap-stale", // c11 fuzz seed 37
			Prog: lang.Prog{
				lang.SeqC(
					rd("r1_0", "x1"),
					wr("x0", 2),
					lang.SwapC("x1", 1),
					wr("x0", 1)),
				lang.SeqC(
					wr("x1", -1),
					rdA("r2_0", "x0")),
			},
			Init:    zero("r1_0", "r2_0", "x0", "x1"),
			Observe: []event.Var{"r1_0", "r2_0", "x0", "x1"},
			// Weak: thread 1's RMW took x1=-1 as its read (final x1=-1
			// is impossible otherwise... it is possible: the RMW reads
			// the init and thread 2's write lands mo-after the update)
			// while thread 2's acquire read still sees the initial x0
			// — staleness across an RMW the interleaving semantics
			// cannot produce.
			Allowed: []Outcome{
				{"r1_0": 0, "r2_0": 0, "x0": 1, "x1": -1},
				{"r1_0": -1, "r2_0": 2, "x0": 1, "x1": 1},
			},
			// r1_0=1 would read thread 1's own later swap.
			Forbidden: []Outcome{{"r1_0": 1, "r2_0": 0, "x0": 1, "x1": 1}},
			SCAllowed: []Outcome{
				{"r1_0": 0, "r2_0": 1, "x0": 1, "x1": -1},
				{"r1_0": -1, "r2_0": 0, "x0": 1, "x1": 1},
			},
			SCForbidden: []Outcome{{"r1_0": 0, "r2_0": 0, "x0": 1, "x1": -1}},
		},
		{
			Name: "Gen-guard-swap", // c11 fuzz seed 52
			Prog: lang.Prog{
				lang.SeqC(
					wr("x1", 1),
					lang.IfC(
						lang.Bin{Op: lang.OpSub, L: lang.X("x1"), R: lang.V(2)},
						lang.AssignC("x1", lang.Ne(lang.X("x0"), lang.V(2))),
						lang.SkipC()),
					wr("x0", 2),
					wr("x1", 1)),
				lang.SeqC(
					rd("r2_0", "x1"),
					lang.SwapC("x0", 1),
					rdA("r2_1", "x1")),
			},
			Init:    zero("r2_0", "r2_1", "x0", "x1"),
			Observe: []event.Var{"r2_0", "r2_1", "x0", "x1"},
			// Weak: both of thread 2's reads are stale (r2_0=r2_1=0)
			// although its RMW on x0 serialised after thread 1's
			// x0:=2 (final x0=1).
			Allowed: []Outcome{
				{"r2_0": 0, "r2_1": 0, "x0": 1, "x1": 1},
				{"r2_0": 1, "r2_1": 1, "x0": 2, "x1": 1},
			},
			// Reading x1=1 and then acquire-reading the initial 0
			// again would violate coherence.
			Forbidden: []Outcome{{"r2_0": 1, "r2_1": 0, "x0": 1, "x1": 1}},
			SCAllowed: []Outcome{
				{"r2_0": 0, "r2_1": 0, "x0": 2, "x1": 1},
				{"r2_0": 1, "r2_1": 1, "x0": 1, "x1": 1},
			},
			SCForbidden: []Outcome{{"r2_0": 0, "r2_1": 0, "x0": 1, "x1": 1}},
		},
		{
			// (The generator also found a two-RMW negative-value
			// shape, shipped as testdata/gen-neg-swap.lit only: its
			// derived values widen the axiomatic value domain enough
			// to make the generate-and-test baseline minutes-slow, so
			// it is exercised through the operational pipeline.)
			Name: "Gen-ctrl-dep", // c11 fuzz seed 33
			Prog: lang.Prog{
				lang.IfC(lang.Ne(lang.X("x0"), lang.V(2)),
					lang.SeqC(
						lang.IfC(lang.Ne(lang.X("x1"), lang.V(2)),
							lang.SeqC(
								lang.AssignC("x0", lang.Bin{Op: lang.OpLt, L: lang.X("x1"), R: lang.V(2)}),
								wr("x0", 1)),
							lang.SkipC()),
						wr("x1", 1)),
					lang.SkipC()),
				lang.SeqC(
					wr("x0", 1),
					lang.IfC(lang.Ne(lang.X("x1"), lang.V(-1)),
						lang.SeqC(wr("x0", 1), rd("r2_0", "x1")),
						lang.SkipC()),
					wrR("x0", 2)),
			},
			Init:    zero("r2_0", "x0", "x1"),
			Observe: []event.Var{"r2_0", "x0", "x1"},
			// Weak: thread 2 reads x1=1 — a write control-dependent
			// on thread 1's guards — yet its own release write x0:=2
			// still loses the modification order to an earlier x0=1.
			Allowed: []Outcome{
				{"r2_0": 1, "x0": 1, "x1": 1},
				{"r2_0": 0, "x0": 2, "x1": 0},
			},
			// x1 is only ever written 1: r2_0=2 is unreadable.
			Forbidden: []Outcome{{"r2_0": 2, "x0": 2, "x1": 1}},
			SCAllowed: []Outcome{
				{"r2_0": 0, "x0": 1, "x1": 1},
				{"r2_0": 1, "x0": 2, "x1": 1},
			},
			SCForbidden: []Outcome{{"r2_0": 1, "x0": 1, "x1": 1}},
		},
	}
}

// Peterson returns Algorithm 1: the release-acquire Peterson lock.
// The critical section is the labelled skip "cs"; mutual exclusion is
// the property that the two threads are never simultaneously at that
// label.
func Peterson() (lang.Prog, map[event.Var]event.Val) {
	return petersonWith(swapTurn, acquireFlagGuard, releaseReset), petersonInit()
}

// PetersonWeakTurn replaces the release-acquire swap of line 3 with a
// plain relaxed write — the classic broken variant: without the
// synchronising update, each thread can miss the other's flag.
func PetersonWeakTurn() (lang.Prog, map[event.Var]event.Val) {
	return petersonWith(plainTurn, acquireFlagGuard, releaseReset), petersonInit()
}

// PetersonRelaxedGuard drops the acquire annotation on the flag read
// in the busy-wait guard (line 4) but keeps the RA swap.
func PetersonRelaxedGuard() (lang.Prog, map[event.Var]event.Val) {
	return petersonWith(swapTurn, relaxedFlagGuard, releaseReset), petersonInit()
}

// PetersonRelaxedReset downgrades the flag reset of line 6 from
// release to relaxed, keeping everything else.
func PetersonRelaxedReset() (lang.Prog, map[event.Var]event.Val) {
	return petersonWith(swapTurn, acquireFlagGuard, relaxedReset), petersonInit()
}

func petersonInit() map[event.Var]event.Val {
	return map[event.Var]event.Val{"flag1": 0, "flag2": 0, "turn": 1}
}

type turnStyle int

const (
	swapTurn turnStyle = iota
	plainTurn
)

type guardStyle int

const (
	acquireFlagGuard guardStyle = iota
	relaxedFlagGuard
)

type resetStyle int

const (
	releaseReset resetStyle = iota
	relaxedReset
)

func petersonWith(ts turnStyle, gs guardStyle, rs resetStyle) lang.Prog {
	thread := func(t int) lang.Com {
		other := 3 - t
		me := event.Var(fmt.Sprintf("flag%d", t))
		you := event.Var(fmt.Sprintf("flag%d", other))

		var setTurn lang.Com
		switch ts {
		case swapTurn:
			setTurn = lang.SwapC("turn", event.Val(other))
		case plainTurn:
			setTurn = lang.AssignC("turn", lang.V(event.Val(other)))
		}

		var flagRead lang.Expr
		switch gs {
		case acquireFlagGuard:
			flagRead = lang.XA(you)
		case relaxedFlagGuard:
			flagRead = lang.X(you)
		}
		guard := lang.And(
			lang.Eq(flagRead, lang.B(true)),
			lang.Eq(lang.X("turn"), lang.V(event.Val(other))),
		)

		var reset lang.Com
		switch rs {
		case releaseReset:
			reset = lang.AssignRelC(me, lang.B(false))
		case relaxedReset:
			reset = lang.AssignC(me, lang.B(false))
		}

		return lang.SeqC(
			lang.AssignC(me, lang.B(true)),   // line 2 (relaxed)
			setTurn,                          // line 3
			lang.WhileC(guard, lang.SkipC()), // line 4
			lang.LabelC("cs", lang.SkipC()),  // line 5
			reset,                            // line 6
		)
	}
	return lang.Prog{thread(1), thread(2)}
}

// MutualExclusion is the safety property of Theorem 5.8: the two
// threads are never both at the critical-section label. It observes
// only program counters, so it is meaningful under every memory model
// (and preserved by the partial-order reduction, which keeps
// label-visible interleavings).
func MutualExclusion(c model.Config) bool {
	p := c.Program()
	return !(lang.AtLabel(p.Thread(1)) == "cs" && lang.AtLabel(p.Thread(2)) == "cs")
}
