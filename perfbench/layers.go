package main

// Per-layer attribution for the traced run, measured from outside the
// library. A traced run alternates two kinds of pass over the same
// queries:
//
//   - reference passes run exactly as the untraced benchmark does and
//     only time each search, giving the untraced search wall time and
//     the runtime's GC and allocation counters at pass boundaries;
//   - probe passes attach a telemetry.NewEngineRegistry to every
//     search for the engine's counts, emit spans through a
//     telemetry.Tracer, and run a probe inside the benchmark's own
//     property callback.
//
// The engine calls the property at each admitted configuration before
// expanding it, so the probe sees the configuration with a warm parent
// and a cold self — the state the engine's own expansion would meet.
// It times lang.StepOf on every thread, AppendStepSuccessors on every
// enabled step and Fingerprint on every successor, then hands the
// successors to Discard. A layer's estimate is its probe cost per call
// times the engine's count of that call; whatever of the untraced
// search wall the estimates do not cover is the engine's own time
// (admission, work pool, POR planning).

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/event"
	"repro/internal/explore"
	"repro/internal/lang"
	"repro/internal/model"
	"repro/internal/telemetry"
)

// acc accumulates one layer's busy time and call count; it is safe for
// concurrent use by the engine's workers.
type acc struct{ ns, n atomic.Int64 }

func (a *acc) add(d time.Duration, n int) {
	a.ns.Add(int64(d))
	a.n.Add(int64(n))
}

// perCall returns the mean cost of one call in ns (0 before any call).
func (a *acc) perCall() float64 {
	if a.n.Load() == 0 {
		return 0
	}
	return float64(a.ns.Load()) / float64(a.n.Load())
}

// Backends, indexing the per-backend successor accounting.
const (
	rar = iota
	scb
	numBackends
)

// engineCounts are registry totals summed over the probe passes'
// searches.
type engineCounts struct {
	states, expansions, successors, dedupHits, boundSuppressed,
	porPruned, requeues, staleClaims float64
	// succ splits successors by backend.
	succ [numBackends]float64
	// stepCalls is the engine's lang.StepOf call count: every
	// expansion steps every thread once.
	stepCalls float64
	// fpCalls counts the engine's Fingerprint calls: one per successor
	// not suppressed by the progress bound, plus the root.
	fpCalls float64
}

// layers is the traced run's accounting. The nil pointer means an
// untraced run; the methods query code calls are nil-safe.
type layers struct {
	tracer *telemetry.Tracer
	// probing is true during probe passes and false during reference
	// passes.
	probing bool

	refSearch acc

	step  acc
	succ  [numBackends]acc
	fp    acc
	timed [numTimed]acc

	// The fields below are written only between searches, by the
	// goroutine running the benchmark.
	eng engineCounts
	// probeSucc totals the probe's successor count over searches
	// without POR that ran to completion, where it must equal the
	// registry's exactly; mismatches records each search where not.
	probeSucc  float64
	mismatches []string
}

// timedCall names a library call the queries time in probe passes.
type timedCall int

const (
	callProperty timedCall = iota // the search's safety property
	callCheck                     // litmus.Test.CheckOutcomes
	callProps                     // ds.Scenario.CheckProps
	callDef42                     // axiomatic.Exec.CoherentDef42
	callC3                        // axiomatic.Exec.WeakCanonicalConsistent
	callCat                       // both catdsl models' Consistent
	callReplay                    // axiomatic.Exec.ReplayFull plus fingerprints
	numTimed
)

// start reads the clock when the pass is probing; stop charges the
// time since start to call c. Outside probe passes both are free, so
// the untraced query path is the plain library call.
func (l *layers) start() time.Time {
	if l == nil || !l.probing {
		return time.Time{}
	}
	return time.Now()
}

func (l *layers) stop(c timedCall, t time.Time) {
	if l == nil || !l.probing {
		return
	}
	l.timed[c].add(time.Since(t), 1)
}

// stepper is a backend configuration the probe can expand step by
// step, in the backend's own typed successor form.
type stepper[C any] interface {
	model.Config
	AppendStepSuccessors(out []C, ps lang.ProgStep) []C
}

// probeScratch is one worker's reusable probe buffers.
type probeScratch[C any] struct {
	steps []lang.ProgStep
	succ  []C
}

// fpSink keeps the probe's fingerprint calls observable.
var fpSink atomic.Uint64

// probe expands c the way the engine is about to, timing each layer,
// and returns the number of successors built.
func probe[C stepper[C]](l *layers, backend int, c C, discard func(parent, succ C), s *probeScratch[C]) int {
	prog := c.Program()
	t0 := time.Now()
	s.steps = s.steps[:0]
	for i, com := range prog {
		if st, ok := lang.StepOf(com); ok {
			s.steps = append(s.steps, lang.ProgStep{T: event.Thread(i + 1), S: st})
		}
	}
	t1 := time.Now()
	s.succ = s.succ[:0]
	for _, ps := range s.steps {
		s.succ = c.AppendStepSuccessors(s.succ, ps)
	}
	t2 := time.Now()
	var x uint64
	for _, n := range s.succ {
		x ^= n.Fingerprint().Lo
	}
	t3 := time.Now()
	fpSink.Add(x)
	var zero C
	for i, n := range s.succ {
		if discard != nil {
			discard(c, n)
		}
		s.succ[i] = zero
	}
	l.step.add(t1.Sub(t0), len(prog))
	l.succ[backend].add(t2.Sub(t1), len(s.succ))
	l.fp.add(t3.Sub(t2), len(s.succ))
	return len(s.succ)
}

// runSearch explores c with opts and returns the result and the set of
// outcomes over observe reached by terminated configurations (nil
// observe collects none). prop, when non-nil, is the safety property;
// discard recycles successors the probe built (nil when the backend
// recycles nothing). Everything the benchmark checks at a
// configuration runs inside its one TypedProperty callback, which is
// where the probe rides in probe passes.
func runSearch[C stepper[C]](l *layers, backend int, c C, opts explore.Options,
	prop func(C) bool, observe []event.Var, discard func(parent, succ C)) (explore.Result, map[string]bool) {
	probing := l != nil && l.probing
	var (
		mu       sync.Mutex
		outcomes = map[string]bool{}
		built    atomic.Int64
		scratch  = sync.Pool{New: func() any { return new(probeScratch[C]) }}
	)
	opts.TypedProperty = func(cfg C) bool {
		if probing {
			s := scratch.Get().(*probeScratch[C])
			built.Add(int64(probe(l, backend, cfg, discard, s)))
			scratch.Put(s)
		}
		if observe != nil && cfg.Terminated() {
			k := cfg.Summarise(observe)
			mu.Lock()
			outcomes[k] = true
			mu.Unlock()
		}
		if prop == nil {
			return true
		}
		t := l.start()
		ok := prop(cfg)
		l.stop(callProperty, t)
		return ok
	}
	var reg *telemetry.Registry
	if probing {
		reg = telemetry.NewEngineRegistry()
		opts.Metrics = reg
		opts.Tracer = l.tracer
	}
	t := time.Now()
	res := explore.Run(c, opts)
	d := time.Since(t)
	if l != nil {
		l.noteSearch(backend, d, reg, len(c.Program()), built.Load(),
			!opts.POR && res.Verdict == explore.VerdictProved)
	}
	return res, outcomes
}

// noteSearch folds one finished search into the accounting.
func (l *layers) noteSearch(backend int, d time.Duration, reg *telemetry.Registry, threads int, built int64, reconcile bool) {
	if !l.probing {
		l.refSearch.add(d, 1)
		return
	}
	tot := func(c telemetry.Counter) float64 { return float64(reg.Total(c)) }
	e := &l.eng
	succ, suppressed := tot(telemetry.EngineSuccessors), tot(telemetry.EngineBoundSuppressed)
	e.states += tot(telemetry.EngineAdmitted)
	e.expansions += tot(telemetry.EngineExpansions)
	e.successors += succ
	e.succ[backend] += succ
	e.dedupHits += tot(telemetry.EngineDedupHits)
	e.boundSuppressed += suppressed
	e.porPruned += tot(telemetry.EnginePORPruned)
	e.requeues += tot(telemetry.EngineRequeues)
	e.staleClaims += tot(telemetry.EngineStaleClaims)
	e.stepCalls += tot(telemetry.EngineExpansions) * float64(threads)
	e.fpCalls += succ - suppressed + 1
	if reconcile {
		l.probeSucc += float64(built)
		if float64(built) != succ {
			l.mismatches = append(l.mismatches,
				fmt.Sprintf("probe built %d successors, registry counted %.0f", built, succ))
		}
	}
}

// counterArgs is the cumulative per-layer probe time, sampled into the
// trace after every query.
func (l *layers) counterArgs() map[string]any {
	return map[string]any{
		"lang_ms":        float64(l.step.ns.Load()) / 1e6,
		"core_ms":        float64(l.succ[rar].ns.Load()) / 1e6,
		"sc_ms":          float64(l.succ[scb].ns.Load()) / 1e6,
		"fingerprint_ms": float64(l.fp.ns.Load()) / 1e6,
		"property_ms":    float64(l.timed[callProperty].ns.Load()) / 1e6,
	}
}
