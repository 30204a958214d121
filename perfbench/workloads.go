package main

// The four workloads. Each builds its queries at set-up; a pass runs
// every query once, in an order drawn from the seed. A query is one
// verdict a user waits for, checked against a known answer: it returns
// an error when the answer is wrong or the search ended BOUNDED, and
// the pass loop counts a panic as a failure too.

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/axiomatic"
	"repro/internal/catdsl"
	"repro/internal/core"
	"repro/internal/ds"
	"repro/internal/enumerate"
	"repro/internal/event"
	"repro/internal/explore"
	"repro/internal/lang"
	"repro/internal/litmus"
	"repro/internal/model"
	"repro/internal/parser"
	"repro/internal/proof"
	"repro/internal/sc"
)

type query struct {
	name string
	run  func(l *layers) error
}

// suite is the product of one set-up.
type suite struct {
	queries []query
	// spanQueries asks probe passes for one span per query; off where
	// queries take microseconds and a span each would swamp the trace.
	spanQueries bool
	// parse and gen time the set-up's parsing and candidate generation
	// (genN candidates), charged to the parser and enumerate layers.
	parse, gen time.Duration
	genN       int
}

type workload struct {
	name  string
	setup func(seed int64) (*suite, error)
}

var workloads = []workload{
	{"peterson-deep", setupPeterson},
	{"writers-wide", setupWriters},
	{"catalog-both", setupCatalog},
	{"axiomatic-equiv", setupAxiomatic},
}

func shuffle[T any](seed int64, xs []T) {
	rand.New(rand.NewSource(seed)).Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
}

// wantVerdict checks a search's verdict. A search degraded by isolated
// panics fails whatever its verdict.
func wantVerdict(res explore.Result, want explore.Verdict) error {
	if len(res.Panics) > 0 {
		return fmt.Errorf("%d isolated panics, first: %s", len(res.Panics), res.Panics[0].Err)
	}
	if res.Verdict != want {
		return fmt.Errorf("verdict %s (stop %s), want %s", res.Verdict, res.Stop, want)
	}
	return nil
}

// --- peterson-deep ---

const (
	// petersonBound makes the proof search take a second or more.
	petersonBound = 120
	// variantBound bounds the relaxed-guard and relaxed-reset searches.
	variantBound = 60
	// smokeBound is the set-up's end-to-end check of the pipeline.
	smokeBound = 10
)

func invariantsHold(c core.Config) bool { return len(proof.CheckPetersonInvariants(c)) == 0 }

// petersonQuery checks invariants (4)–(10) over the search of one
// Peterson variant.
func petersonQuery(name string, build func() (lang.Prog, map[event.Var]event.Val), opts explore.Options, want explore.Verdict) query {
	p, vars := build()
	return query{name: fmt.Sprintf("%s@%d", name, opts.MaxEvents), run: func(l *layers) error {
		res, _ := runSearch(l, rar, core.NewConfig(p, vars), opts, invariantsHold, nil, core.Config.Discard)
		return wantVerdict(res, want)
	}}
}

// petersonOpts is the POR-reduced serial search to the given bound.
func petersonOpts(bound int) explore.Options {
	return explore.Options{MaxEvents: bound, Workers: 1, POR: true}
}

// setupPeterson builds Algorithm 1, searched at two bounds, and its
// three weakened variants. Five queries of three sizes put the median
// query in the middle of the bound-60 group and the 90th percentile
// inside the bound-120 one, away from the edges between sizes.
// The known answers are the verdicts of c11verify -variant: the
// invariants hold for Algorithm 1; a relaxed turn write breaks
// invariant (4) within a few steps; relaxing only the flag guard or
// only the flag reset keeps every invariant within the bound.
func setupPeterson(seed int64) (*suite, error) {
	if err := petersonQuery("peterson", litmus.Peterson, petersonOpts(smokeBound), explore.VerdictProved).run(nil); err != nil {
		return nil, fmt.Errorf("smoke query: %w", err)
	}
	qs := []query{
		petersonQuery("peterson", litmus.Peterson, petersonOpts(petersonBound), explore.VerdictProved),
		petersonQuery("peterson", litmus.Peterson, petersonOpts(variantBound), explore.VerdictProved),
		petersonQuery("weak-turn", litmus.PetersonWeakTurn, petersonOpts(petersonBound), explore.VerdictViolated),
		petersonQuery("relaxed-guard", litmus.PetersonRelaxedGuard, petersonOpts(variantBound), explore.VerdictProved),
		petersonQuery("relaxed-reset", litmus.PetersonRelaxedReset, petersonOpts(variantBound), explore.VerdictProved),
	}
	shuffle(seed, qs)
	return &suite{queries: qs, spanQueries: true}, nil
}

// --- writers-wide ---

// wideWriters is the width of the E16 scaling client searched.
const wideWriters = 6

// scalingProg is the E16 scaling client: n writer threads store 1..n
// to x, and one reader reads x twice, into r1 then r2.
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

var readerRegs = []event.Var{"r1", "r2"}

// writersOutcomes is the known answer: every (r1, r2) over 0..n except
// a first read of a stored value followed by a read of the initial 0,
// which read-read coherence forbids — (n+1)² − n outcomes.
func writersOutcomes(n int) map[string]bool {
	out := map[string]bool{}
	for a := 0; a <= n; a++ {
		for b := 0; b <= n; b++ {
			if a != 0 && b == 0 {
				continue
			}
			o := litmus.Outcome{"r1": event.Val(a), "r2": event.Val(b)}
			out[o.Key(readerRegs)] = true
		}
	}
	return out
}

// writersQuery collects the reader's outcomes over the full search of
// the n-writer client (no POR) with two workers sharing the pool and
// compares them with want.
func writersQuery(n int, want map[string]bool) query {
	p, vars := scalingProg(n)
	return query{name: fmt.Sprintf("writers=%d", n), run: func(l *layers) error {
		res, got := runSearch(l, rar, core.NewConfig(p, vars),
			explore.Options{MaxEvents: 2*n + 5, Workers: 2},
			nil, readerRegs, core.Config.Discard)
		if err := wantVerdict(res, explore.VerdictProved); err != nil {
			return err
		}
		if res.Truncated {
			return errors.New("the event bound cut a thread short")
		}
		return sameOutcomes(got, want)
	}}
}

func sameOutcomes(got, want map[string]bool) error {
	var missing, extra []string
	for k := range want {
		if !got[k] {
			missing = append(missing, k)
		}
	}
	for k := range got {
		if !want[k] {
			extra = append(extra, k)
		}
	}
	if len(missing)+len(extra) == 0 {
		return nil
	}
	sort.Strings(missing)
	sort.Strings(extra)
	return fmt.Errorf("%d outcomes, want %d: missing %v, unexpected %v", len(got), len(want), missing, extra)
}

// setupWriters builds the six-writer client; its smoke query is the
// three-writer one, whose 13 outcomes c11explore -diff confirms.
func setupWriters(int64) (*suite, error) {
	if err := writersQuery(3, writersOutcomes(3)).run(nil); err != nil {
		return nil, fmt.Errorf("smoke query: %w", err)
	}
	return &suite{queries: []query{writersQuery(wideWriters, writersOutcomes(wideWriters))}, spanQueries: true}, nil
}

// --- catalog-both ---

// catalogBound is c11litmus's event bound for the litmus catalog; DS
// scenarios run at the bound pinned in their .lit file.
const catalogBound = 20

// catalogTest is one test of the catalog; rarOut carries the current
// pass's RAR outcome set to its SC query for the SC ⊆ RAR check.
type catalogTest struct {
	t        *litmus.Test
	scenario *ds.Scenario // nil for the litmus catalog
	rarOut   map[string]bool
}

// setupCatalog parses the DS tier from testdata/ds and pairs each file
// with its scenario's outcome properties, then adds the litmus
// catalog. Each test yields a RAR query followed by an SC query.
func setupCatalog(seed int64) (*suite, error) {
	files, err := filepath.Glob(filepath.Join("testdata", "ds", "*.lit"))
	if err != nil {
		return nil, err
	}
	scenarios := map[string]ds.Scenario{}
	for _, s := range ds.Suite() {
		scenarios[s.Test.Name] = s
	}
	if len(files) != len(scenarios) {
		return nil, fmt.Errorf("found %d DS files under testdata/ds, want %d (run from the repository root)",
			len(files), len(scenarios))
	}
	var tests []*catalogTest
	var parse time.Duration
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		name := strings.TrimSuffix(filepath.Base(f), ".lit")
		t0 := time.Now()
		pf, err := parser.Parse(name, string(src))
		if err != nil {
			return nil, err
		}
		tc, err := pf.Test()
		parse += time.Since(t0)
		if err != nil {
			return nil, err
		}
		s, ok := scenarios[name]
		if !ok {
			return nil, fmt.Errorf("%s: no DS scenario of that name", f)
		}
		tests = append(tests, &catalogTest{t: tc, scenario: &s})
	}
	for _, tc := range litmus.Suite() {
		tests = append(tests, &catalogTest{t: tc})
	}
	shuffle(seed, tests)
	qs := make([]query, 0, 2*len(tests))
	for _, ct := range tests {
		qs = append(qs, ct.query(rar), ct.query(scb))
	}
	return &suite{queries: qs, spanQueries: true, parse: parse}, nil
}

func (ct *catalogTest) query(backend int) query {
	t := ct.t
	opts := explore.Options{MaxEvents: catalogBound, Workers: 1, POR: true}
	var mutex func(model.Config) bool
	if s := ct.scenario; s != nil {
		if t.MaxEvents > 0 {
			opts.MaxEvents = t.MaxEvents
		}
		if s.MutexLabel != "" {
			mutex = proof.MutexAtLabel(s.MutexLabel, proof.ClientThreads(len(t.Prog))...)
		}
	}
	modelName := [numBackends]string{rar: "rar", scb: "sc"}[backend]
	return query{name: t.Name + "/" + modelName, run: func(l *layers) error {
		var res explore.Result
		var out map[string]bool
		if backend == rar {
			ct.rarOut = nil
			var prop func(core.Config) bool
			if mutex != nil {
				prop = func(c core.Config) bool { return mutex(c) }
			}
			res, out = runSearch(l, rar, core.NewConfig(t.Prog, t.Init), opts, prop, t.Observe, core.Config.Discard)
		} else {
			var prop func(sc.Config) bool
			if mutex != nil {
				prop = func(c sc.Config) bool { return mutex(c) }
			}
			res, out = runSearch(l, scb, sc.NewConfig(t.Prog, t.Init), opts, prop, t.Observe, nil)
		}
		if err := wantVerdict(res, explore.VerdictProved); err != nil {
			return err
		}
		ts := l.start()
		missing, reached := t.CheckOutcomes(modelName, out)
		l.stop(callCheck, ts)
		if len(missing)+len(reached) > 0 {
			return fmt.Errorf("allowed outcomes missing %v, forbidden outcomes reached %v", missing, reached)
		}
		if ct.scenario != nil {
			ts = l.start()
			bad := ct.scenario.CheckProps(out)
			l.stop(callProps, ts)
			if len(bad) > 0 {
				return fmt.Errorf("outcome properties violated: %v", bad)
			}
		}
		if backend == rar {
			ct.rarOut = out
			return nil
		}
		if ct.rarOut == nil {
			return errors.New("no RAR outcome set to check SC against")
		}
		for k := range out {
			if !ct.rarOut[k] {
				return fmt.Errorf("SC outcome %s is not a RAR outcome", k)
			}
		}
		return nil
	}}
}

// --- axiomatic-equiv ---

// candidatesPerPass is the size of the seeded candidate stream one
// pass classifies.
const candidatesPerPass = 2000

// equivParams is the Appendix E Alloy bound.
var equivParams = enumerate.Params{Threads: 3, Vars: []event.Var{"x", "y"}, Events: 7}

// setupAxiomatic parses the two Appendix E cat models and draws the
// seeded candidate stream.
func setupAxiomatic(seed int64) (*suite, error) {
	rarCat, canonCat := catdsl.C11RAR(), catdsl.Canonical()
	rng := rand.New(rand.NewSource(seed))
	t0 := time.Now()
	xs := make([]axiomatic.Exec, candidatesPerPass)
	for i := range xs {
		xs[i] = enumerate.Random(rng, equivParams)
	}
	gen := time.Since(t0)
	qs := make([]query, len(xs))
	for i, x := range xs {
		qs[i] = classifyQuery(fmt.Sprintf("candidate %d", i), x, rarCat, canonCat)
	}
	return &suite{queries: qs, gen: gen, genN: len(xs)}, nil
}

// classifyQuery decides one candidate's consistency four ways — the
// eco-based coherence of Definition 4.2, the weak canonical
// consistency of Definition C.3 and both cat models — which must agree
// (Theorem C.5); a valid candidate must then replay operationally to a
// state with the execution's fingerprint (Theorem 4.8).
func classifyQuery(name string, x axiomatic.Exec, rarCat, canonCat *catdsl.Model) query {
	return query{name: name, run: func(l *layers) error {
		t := l.start()
		def42 := x.CoherentDef42()
		l.stop(callDef42, t)
		t = l.start()
		c3 := x.WeakCanonicalConsistent()
		l.stop(callC3, t)
		t = l.start()
		catRAR, catCanon := rarCat.Consistent(x), canonCat.Consistent(x)
		l.stop(callCat, t)
		if def42 != c3 || def42 != catRAR || c3 != catCanon {
			return fmt.Errorf("consistency verdicts disagree: Def 4.2 %v, Def C.3 %v, c11_rar.cat %v, canonical cat %v",
				def42, c3, catRAR, catCanon)
		}
		if !x.Valid() {
			return nil
		}
		t = l.start()
		s, err := x.ReplayFull()
		same := err == nil && s.Fingerprint() == x.Fingerprint()
		l.stop(callReplay, t)
		if err != nil {
			return fmt.Errorf("replay: %w", err)
		}
		if !same {
			return errors.New("the replayed state's fingerprint differs from the execution's")
		}
		return nil
	}}
}
