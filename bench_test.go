package repro

// The benchmark harness: one benchmark (or benchmark family) per
// experiment of the reproduction (PERF.md records the headline
// numbers). Where the paper's artefact is a theorem or a worked
// example rather than a timing, the benchmark measures the cost of
// regenerating/checking it, and the correctness assertions live in
// the package test suites.
//
// The headline comparison (experiment E16) is operational enumeration
// with on-the-fly read validation versus the axiomatic two-step
// generate-and-test procedure on the same programs: the operational
// route prunes invalid reads as it goes and wins by a growing factor.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/axiomatic"
	"repro/internal/core"
	"repro/internal/ds"
	"repro/internal/enumerate"
	"repro/internal/event"
	"repro/internal/explore"
	"repro/internal/lang"
	"repro/internal/litmus"
	"repro/internal/model"
	"repro/internal/proof"
	"repro/internal/sc"
	"repro/internal/telemetry"
)

// --- E1/E2: the command language (Figures 1 and 2) ---

func BenchmarkE1_ExpressionEvaluation(b *testing.B) {
	guard := lang.And(lang.Eq(lang.XA("flag2"), lang.B(true)),
		lang.Eq(lang.X("turn"), lang.V(2)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := guard
		for !lang.Closed(e) {
			x, _, _ := lang.EvalTarget(e)
			e = lang.Subst(e, x, 1)
		}
		if lang.Eval(e) == 99 {
			b.Fatal("impossible")
		}
	}
}

func BenchmarkE2_UninterpretedProgramSteps(b *testing.B) {
	p, _ := litmus.Peterson()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if len(lang.ProgSteps(p)) == 0 {
			b.Fatal("no steps")
		}
	}
}

// --- E3/E4: the event semantics (Figure 3, Examples 3.2-3.5) ---

func BenchmarkE3_EventSemanticsSteps(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := core.Init(map[event.Var]event.Val{"x": 0, "y": 0})
		ix, _ := s.InitialFor("x")
		iy, _ := s.InitialFor("y")
		s, w1, _ := s.StepWrite(1, true, "x", 1, ix)
		s, _, _ = s.StepRead(2, true, "x", w1.Tag)
		s, u, _ := s.StepRMW(2, "y", 7, iy)
		if _, _, err := s.StepRMW(1, "y", 8, u.Tag); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE4_ObservabilitySets(b *testing.B) {
	// Build the Example 3.2 state once, then measure EW/OW/CW.
	s := core.Init(map[event.Var]event.Val{"x": 0, "y": 0, "z": 0})
	ix, _ := s.InitialFor("x")
	iy, _ := s.InitialFor("y")
	iz, _ := s.InitialFor("z")
	s, w2, _ := s.StepWrite(2, true, "x", 2, ix)
	s, _, _ = s.StepWrite(2, false, "y", 1, iy)
	s, _, _ = s.StepRead(3, true, "x", w2.Tag)
	s, wz, _ := s.StepWrite(3, false, "z", 3, iz)
	s, _, _ = s.StepRMW(1, "x", 4, w2.Tag)
	s, _, _ = s.StepRMW(4, "y", 5, iy)
	s, _, _ = s.StepRead(4, false, "z", wz.Tag)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for t := event.Thread(1); t <= 4; t++ {
			if s.ObservableWrites(t).Count() == 0 {
				b.Fatal("no observable writes")
			}
		}
		_ = s.CoveredWrites()
	}
}

// --- E7/E8: axiom checking and soundness (Definition 4.2, Thm 4.4) ---

func BenchmarkE7_AxiomCheck(b *testing.B) {
	p, vars := litmus.Peterson()
	cfg := core.NewConfig(p, vars)
	for i := 0; i < 10; i++ {
		succ := cfg.Successors()
		cfg = succ[len(succ)-1]
	}
	x := axiomatic.FromState(cfg.S)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if v := x.Check(); v != nil {
			b.Fatal(v)
		}
	}
}

func BenchmarkE8_SoundnessRandomWalk(b *testing.B) {
	rng := rand.New(rand.NewSource(44))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := core.Init(map[event.Var]event.Val{"x": 0, "y": 0})
		for j := 0; j < 8; j++ {
			th := event.Thread(1 + rng.Intn(2))
			x := []event.Var{"x", "y"}[rng.Intn(2)]
			pts := s.InsertionPointsFor(th, x)
			if len(pts) == 0 {
				continue
			}
			ns, _, err := s.StepWrite(th, rng.Intn(2) == 0, x, event.Val(j), pts[rng.Intn(len(pts))])
			if err != nil {
				b.Fatal(err)
			}
			s = ns
		}
		if v := axiomatic.FromState(s).Check(); v != nil {
			b.Fatal(v)
		}
	}
}

// --- E9: completeness replay (Theorem 4.8) ---

func BenchmarkE9_CompletenessReplayMP(b *testing.B) {
	p := lang.Prog{
		lang.SeqC(lang.AssignC("d", lang.V(5)), lang.AssignRelC("f", lang.V(1))),
		lang.SeqC(lang.AssignC("a", lang.XA("f")), lang.AssignC("b", lang.X("d"))),
	}
	vars := map[event.Var]event.Val{"d": 0, "f": 0, "a": 0, "b": 0}
	execs := axiomatic.ValidExecutions(p, vars, 40)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, x := range execs {
			if _, err := x.ReplayFull(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- E10: rule soundness checking (Figure 4) ---

func BenchmarkE10_RuleChecks(b *testing.B) {
	s := core.Init(map[event.Var]event.Val{"x": 0, "y": 0})
	ix, _ := s.InitialFor("x")
	iy, _ := s.InitialFor("y")
	s, _, _ = s.StepWrite(1, false, "x", 2, ix)
	s, wy, _ := s.StepWrite(1, true, "y", 1, iy)
	after, e, _ := s.StepRead(2, true, "y", wy.Tag)
	tr := proof.Transition{Before: s, M: wy.Tag, E: e, After: after}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if prem, concl := proof.RuleTransfer(tr, 1, "x", 2); !prem || !concl {
			b.Fatal("Transfer failed")
		}
		if prem, concl := proof.RuleAcqRd(tr, "y"); !prem || !concl {
			b.Fatal("AcqRd failed")
		}
	}
}

// --- E13: Peterson verification (Algorithm 1, Theorem 5.8) ---

func benchPeterson(b *testing.B, bound, workers int, por bool) {
	p, vars := litmus.Peterson()
	b.ReportAllocs()
	var explored int
	for i := 0; i < b.N; i++ {
		res := explore.Run(core.NewConfig(p, vars), explore.Options{
			MaxEvents: bound,
			Workers:   workers,
			POR:       por,
			TypedProperty: func(c core.Config) bool {
				return len(proof.CheckPetersonInvariants(c)) == 0
			},
		})
		if res.Violation != nil {
			b.Fatal("invariant violated")
		}
		explored = res.Explored
	}
	// The search is deterministic, so states/op is the same every
	// iteration; reporting it makes ns-per-state comparable across
	// bounds and machines (bench-snapshot.sh keys on it).
	b.ReportMetric(float64(explored), "states/op")
}

func BenchmarkE13_PetersonVerify(b *testing.B) {
	for _, bound := range []int{7, 8, 9, 10} {
		b.Run(fmt.Sprintf("bound=%d/serial", bound), func(b *testing.B) {
			benchPeterson(b, bound, 1, false)
		})
		b.Run(fmt.Sprintf("bound=%d/serial/por", bound), func(b *testing.B) {
			benchPeterson(b, bound, 1, true)
		})
		b.Run(fmt.Sprintf("bound=%d/parallel", bound), func(b *testing.B) {
			benchPeterson(b, bound, 0, false)
		})
		b.Run(fmt.Sprintf("bound=%d/parallel/por", bound), func(b *testing.B) {
			benchPeterson(b, bound, 0, true)
		})
	}
}

// BenchmarkE13_MetricsPeterson runs the bound-10 serial Peterson
// sweep with a metrics registry attached and reports the search-shape
// ratios alongside ns/op: POR-pruned steps and fingerprint-dedup hits
// per operation. bench-snapshot.sh records every reported metric, so
// BENCH_*.json snapshots carry the search shape next to the timing —
// a perf regression that changes *what* was explored (rather than how
// fast) shows up in these columns. The name deliberately does not
// match the CI perf-gate pattern (E13_PetersonVerify): the gate
// compares the telemetry-disabled hot path only.
func BenchmarkE13_MetricsPeterson(b *testing.B) {
	p, vars := litmus.Peterson()
	for _, por := range []bool{false, true} {
		name := "bound=10/serial"
		if por {
			name += "/por"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var explored int
			var pruned, dedup uint64
			for i := 0; i < b.N; i++ {
				reg := telemetry.NewEngineRegistry()
				res := explore.Run(core.NewConfig(p, vars), explore.Options{
					MaxEvents: 10,
					Workers:   1,
					POR:       por,
					Metrics:   reg,
					TypedProperty: func(c core.Config) bool {
						return len(proof.CheckPetersonInvariants(c)) == 0
					},
				})
				if res.Violation != nil {
					b.Fatal("invariant violated")
				}
				explored = res.Explored
				pruned = reg.Total(telemetry.EnginePORPruned)
				dedup = reg.Total(telemetry.EngineDedupHits)
			}
			b.ReportMetric(float64(explored), "states/op")
			b.ReportMetric(float64(pruned), "por-pruned/op")
			b.ReportMetric(float64(dedup), "dedup-hits/op")
		})
	}
}

// peterson3 is a three-thread Peterson-style client: each thread
// raises its flag (relaxed write), yields the turn with an RA swap,
// spins on an acquiring read of the next thread's flag and a relaxed
// read of turn, then enters a labelled critical section and resets its
// flag with a release write. It exercises the same event mix as
// Algorithm 1 (relaxed/release writes, RA updates, acquire guard
// reads) on a wider carrier — three program threads plus the
// initialising thread — so per-state costs that scale with carrier
// width (closure maintenance, observability) dominate.
func peterson3() (lang.Prog, map[event.Var]event.Val) {
	mk := func(i int, watch event.Var) lang.Com {
		me := event.Var(fmt.Sprintf("f%d", i))
		return lang.SeqC(
			lang.AssignC(me, lang.B(true)),
			lang.SwapC("turn", event.Val(i)),
			lang.WhileC(lang.And(
				lang.Eq(lang.XA(watch), lang.B(true)),
				lang.Eq(lang.X("turn"), lang.V(event.Val(i))),
			), lang.SkipC()),
			lang.LabelC("cs", lang.SkipC()),
			lang.AssignRelC(me, lang.B(false)),
		)
	}
	p := lang.Prog{mk(1, "f2"), mk(2, "f3"), mk(3, "f1")}
	vars := map[event.Var]event.Val{"f1": 0, "f2": 0, "f3": 0, "turn": 0}
	return p, vars
}

// BenchmarkE13_ThreeThreadPeterson explores the three-thread client —
// the incremental engine's win grows with carrier width, so this is
// the headline number beyond litmus-sized programs.
func BenchmarkE13_ThreeThreadPeterson(b *testing.B) {
	p, vars := peterson3()
	for _, workers := range []int{1, 0} {
		name := "serial"
		if workers == 0 {
			name = "parallel"
		}
		for _, por := range []bool{false, true} {
			bn := name
			if por {
				bn += "/por"
			}
			b.Run(bn, func(b *testing.B) {
				b.ReportAllocs()
				var explored int
				for i := 0; i < b.N; i++ {
					res := explore.Run(core.NewConfig(p, vars), explore.Options{
						MaxEvents: 10,
						Workers:   workers,
						POR:       por,
					})
					if res.Explored == 0 {
						b.Fatal("nothing explored")
					}
					explored = res.Explored
				}
				b.ReportMetric(float64(explored), "states/op")
			})
		}
	}
}

func BenchmarkE13_PetersonWeakTurnWitness(b *testing.B) {
	p, vars := litmus.PetersonWeakTurn()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, found := explore.FindTrace(core.NewConfig(p, vars), explore.Options{
			MaxEvents: 12,
		}, func(c model.Config) bool { return !litmus.MutualExclusion(c) })
		if !found {
			b.Fatal("no witness")
		}
	}
}

// --- E14/E15: model equivalence (Theorem C.5, the Memalloy bound) ---

func BenchmarkE14_TheoremC5Exhaustive(b *testing.B) {
	for _, events := range []int{2, 3} {
		b.Run(fmt.Sprintf("events=%d", events), func(b *testing.B) {
			params := enumerate.Params{
				Threads: 2, Vars: []event.Var{"x"}, Events: events,
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				enumerate.Candidates(params, func(x axiomatic.Exec) bool {
					if x.CoherentDef42() != x.WeakCanonicalConsistent() {
						b.Fatal("mismatch")
					}
					return true
				})
			}
		})
	}
}

func BenchmarkE15_TheoremC5RandomSize7(b *testing.B) {
	rng := rand.New(rand.NewSource(15))
	params := enumerate.Params{Threads: 3, Vars: []event.Var{"x", "y"}, Events: 7}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x := enumerate.Random(rng, params)
		if x.CoherentDef42() != x.WeakCanonicalConsistent() {
			b.Fatal("mismatch")
		}
	}
}

// --- E16: operational vs axiomatic enumeration (the intro's claim) ---

func litmusProgs() map[string]struct {
	p    lang.Prog
	vars map[event.Var]event.Val
} {
	out := map[string]struct {
		p    lang.Prog
		vars map[event.Var]event.Val
	}{}
	for _, tc := range litmus.Suite() {
		switch tc.Name {
		case "MP+rel+acq", "SB+rel+acq", "LB+rlx+rlx", "2+2W":
			out[tc.Name] = struct {
				p    lang.Prog
				vars map[event.Var]event.Val
			}{tc.Prog, tc.Init}
		}
	}
	return out
}

func BenchmarkE16_Operational(b *testing.B) {
	for name, pc := range litmusProgs() {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if op, _ := axiomatic.OperationalExecutions(pc.p, pc.vars, explore.Options{MaxEvents: 40}); len(op) == 0 {
					b.Fatal("no executions")
				}
			}
		})
	}
}

func BenchmarkE16_AxiomaticBaseline(b *testing.B) {
	for name, pc := range litmusProgs() {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if len(axiomatic.ValidExecutions(pc.p, pc.vars, 40)) == 0 {
					b.Fatal("no executions")
				}
			}
		})
	}
}

// scalingProg returns a program with n writer threads storing distinct
// values to x and one reader thread reading x twice. The axiomatic
// baseline must enumerate all n! modification orders and (n+1)²
// reads-from choices per pre-execution and filter post hoc, while the
// operational semantics validates reads on the fly — the paper's
// motivation for an operational model, measured.
func scalingProg(n int) (lang.Prog, map[event.Var]event.Val) {
	p := make(lang.Prog, 0, n+1)
	for i := 1; i <= n; i++ {
		p = append(p, lang.AssignC("x", lang.V(event.Val(i))))
	}
	p = append(p, lang.SeqC(
		lang.AssignC("r1", lang.X("x")),
		lang.AssignC("r2", lang.X("x")),
	))
	return p, map[event.Var]event.Val{"x": 0, "r1": 0, "r2": 0}
}

func BenchmarkE16_ScalingOperational(b *testing.B) {
	for n := 2; n <= 4; n++ {
		b.Run(fmt.Sprintf("writers=%d", n), func(b *testing.B) {
			p, vars := scalingProg(n)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if op, _ := axiomatic.OperationalExecutions(p, vars, explore.Options{MaxEvents: 40}); len(op) == 0 {
					b.Fatal("no executions")
				}
			}
		})
	}
}

// BenchmarkE16_ScalingWide pushes the scaling client to five and six
// writers — carriers the axiomatic baseline cannot touch (6!
// modification orders per pre-execution) and wide enough that
// per-successor closure maintenance dominates. It runs through the
// sharded engine rather than the naive enumerator, serial and with two
// and eight workers, so it doubles as the scaling row: the searches
// are deterministic and states/op is pinned (bench-snapshot.sh records
// it), making ns-per-state and the serial/parallel ratios comparable
// across commits. workers=2 matches a two-CPU machine, where it is the
// row that shows scaling; workers=8 oversubscribes such a machine and
// shows what idle workers and stealing cost. Run with -benchtime=1x:
// writers=6 explores over a hundred thousand configurations per
// search.
func BenchmarkE16_ScalingWide(b *testing.B) {
	for n := 5; n <= 6; n++ {
		for _, workers := range []int{1, 2, 8} {
			name := fmt.Sprintf("writers=%d/serial", n)
			if workers != 1 {
				name = fmt.Sprintf("writers=%d/workers=%d", n, workers)
			}
			b.Run(name, func(b *testing.B) {
				p, vars := scalingProg(n)
				bound := 2*n + 5 // every thread runs to completion
				b.ReportAllocs()
				var explored int
				for i := 0; i < b.N; i++ {
					res := explore.Run(core.NewConfig(p, vars), explore.Options{
						MaxEvents: bound,
						Workers:   workers,
					})
					if res.Explored == 0 || res.Truncated {
						b.Fatal("search did not run to its fixpoint")
					}
					explored = res.Explored
				}
				b.ReportMetric(float64(explored), "states/op")
			})
		}
	}
}

func BenchmarkE16_ScalingAxiomatic(b *testing.B) {
	for n := 2; n <= 4; n++ {
		b.Run(fmt.Sprintf("writers=%d", n), func(b *testing.B) {
			p, vars := scalingProg(n)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if len(axiomatic.ValidExecutions(p, vars, 40)) == 0 {
					b.Fatal("no executions")
				}
			}
		})
	}
}

// loopingMP is message passing with a genuine await loop — the shape
// verification cares about. The axiomatic baseline must enumerate
// pre-executions whose guard reads range over the whole value domain
// (most of them unjustifiable, discovered only post hoc), while the
// operational semantics only ever produces readable values.
func loopingMP() (lang.Prog, map[event.Var]event.Val) {
	p := lang.Prog{
		lang.SeqC(lang.AssignC("d", lang.V(5)), lang.AssignRelC("f", lang.V(1))),
		lang.SeqC(
			lang.WhileC(lang.Eq(lang.XA("f"), lang.V(0)), lang.SkipC()),
			lang.AssignC("r", lang.X("d")),
		),
	}
	return p, map[event.Var]event.Val{"d": 0, "f": 0, "r": 0}
}

func BenchmarkE16_LoopingMPOperational(b *testing.B) {
	p, vars := loopingMP()
	for _, por := range []bool{false, true} {
		name := "full"
		if por {
			name = "por"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res := explore.Run(core.NewConfig(p, vars), explore.Options{
					MaxEvents: 10, Workers: 1, POR: por,
				})
				if res.Explored == 0 {
					b.Fatal("nothing explored")
				}
			}
		})
	}
}

func BenchmarkE16_LoopingMPAxiomatic(b *testing.B) {
	p, vars := loopingMP()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if len(axiomatic.ValidExecutions(p, vars, 10)) == 0 {
			b.Fatal("no executions")
		}
	}
}

// --- Litmus suite end to end (E16 verdict costs) ---

func BenchmarkLitmusSuiteVerdicts(b *testing.B) {
	suite := litmus.Suite()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, tc := range suite {
			if rep := tc.Run(explore.Options{MaxEvents: 20}); !rep.Pass() {
				b.Fatalf("%s failed", tc.Name)
			}
		}
	}
}

// --- Data-structure tier (testdata/ds) under both backends ---

// BenchmarkDSSuite runs every data-structure scenario — Treiber stack,
// MS-style queue, ticket lock, CAS set, lazylist — at its pinned event
// bound under each backend, checking the catalog expectations and the
// linearizability-style outcome properties on every iteration. The
// searches are deterministic, so states/op is stable and ns-per-state
// is comparable across scenarios and models (the SC spaces are a small
// fraction of the RAR ones; PERF.md tabulates the counts).
func BenchmarkDSSuite(b *testing.B) {
	for _, s := range ds.Suite() {
		s := s
		for _, m := range []model.Model{core.Model, sc.Model} {
			m := m
			b.Run(s.Test.Name+"/"+m.Name(), func(b *testing.B) {
				b.ReportAllocs()
				var explored int
				for i := 0; i < b.N; i++ {
					rep := s.Test.RunModel(m, explore.Options{POR: true, Workers: 1})
					if !rep.Pass() {
						b.Fatalf("%s/%s: expectations failed", s.Test.Name, m.Name())
					}
					if v := s.CheckProps(rep.Outcomes); len(v) != 0 {
						b.Fatalf("%s/%s: property violations: %v", s.Test.Name, m.Name(), v)
					}
					explored = rep.Explored
				}
				b.ReportMetric(float64(explored), "states/op")
			})
		}
	}
}

// --- E17: pluggable memory models (RA vs SC on one engine) ---

// BenchmarkE17_ModelPeterson runs the Peterson workload through the
// unified engine under each backend. SC configurations carry no event
// graph and its reads are deterministic, so the SC state space is a
// small fraction of the RA one (PERF.md tabulates the counts).
func BenchmarkE17_ModelPeterson(b *testing.B) {
	p, vars := litmus.Peterson()
	run := func(b *testing.B, m model.Model) {
		b.ReportAllocs()
		var explored int
		for i := 0; i < b.N; i++ {
			res := explore.Run(m.New(p, vars), explore.Options{
				MaxEvents: 10, Workers: 1, Property: litmus.MutualExclusion,
			})
			if res.Violation != nil {
				b.Fatal("violation")
			}
			explored = res.Explored
		}
		b.ReportMetric(float64(explored), "states/op")
	}
	b.Run("rar", func(b *testing.B) { run(b, core.Model) })
	b.Run("sc", func(b *testing.B) { run(b, sc.Model) })
}

// BenchmarkE17_ModelDiff measures the full differential mode
// (litmus.Test.Compare): both backends on one litmus test plus the
// outcome-set comparison.
func BenchmarkE17_ModelDiff(b *testing.B) {
	var sb *litmus.Test
	for _, tc := range litmus.Suite() {
		if tc.Name == "SB+rel+acq" {
			sb = tc
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := sb.Compare(core.Model, sc.Model, explore.Options{MaxEvents: 20})
		if !c.Differ() {
			b.Fatal("SB must differ between RA and SC")
		}
	}
}
