// Package explore is a bounded explicit-state model checker, generic
// over the pluggable memory models of internal/model (the RAR
// semantics of internal/core, the SC semantics of internal/sc). It
// enumerates the configurations reachable from an initial one,
// deduplicating by canonical 128-bit configuration fingerprints, and
// checks safety properties at every state. Under the RAR backend,
// programs with loops have unbounded executions (each loop iteration
// appends read events), so exploration is bounded by the model's
// Progress measure; within that bound the search is exhaustive. Under
// SC the configuration space is finite and MaxConfigs alone bounds it.
//
// With Options.POR the search applies independence-based partial-order
// reduction (por.go): a persistent-set heuristic expands only a subset
// of the enabled threads where one is provably conflict-free (by the
// lang.StepsCommute oracle and static program footprints), and
// sleep sets prune commuting interleavings that are covered elsewhere.
// The reduced search preserves every terminated configuration and all
// label-visible interleavings, but not every intermediate
// configuration; Audit (audit.go) diffs a reduced against a full
// search.
//
// There is exactly one engine: a sharded, barrier-free search in which
// each worker owns a deque of the work pool (pool.go), pops
// configurations from it and pushes successors onto it as it finds
// them, deduplicating through a seen-set sharded by fingerprint bits
// into flat open-addressed tables (seen.go).
// Serial exploration is the same engine at Workers=1 (the single deque
// is a FIFO drained in breadth-first order, so a state's recorded
// depth is its shortest distance from the root). With more workers,
// each pops the successors of its own latest expansion first, in the
// order they were built, and an idle worker steals the oldest item of
// another deque: the workers descend depth-first, which keeps the
// frontier narrow, and discovery order is nondeterministic. A state
// may therefore first be reached along a non-shortest path; when a
// shorter path is found later the state's depth is relaxed and — if
// it was already expanded — it is re-queued so the improvement
// propagates.
// Sleep masks relax the same way, by intersection: re-reaching a known
// state with a smaller sleep set weakens the stored mask and re-queues
// the state. Both relaxations are monotone, so at quiescence every state
// carries its shortest-path depth and its final (smallest) sleep mask,
// making Explored, Terminated, Depth and the Truncated flag identical
// across worker counts whenever the search runs to completion (no
// budget cut, no early property exit) — with or without POR, for
// every backend. The witness search FindTrace is this engine too, run
// serially without reduction and recording parent links.
//
// The engine is resource-governed (budget.go): the context (the one
// clock and cancel input), state and memory budgets all cut the search
// at a safe point and yield a sound partial Result with a tri-state
// Verdict; and worker panics in model code are isolated per
// configuration while the remaining shards finish in degraded mode.
package explore

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"time"

	"repro/internal/fingerprint"
	"repro/internal/model"
	"repro/internal/telemetry"
)

// Options bounds and configures an exploration.
type Options struct {
	// MaxEvents bounds the model's Progress measure per state
	// (non-initialising events under RAR; SC configurations make no
	// progress and are unbounded here); configurations at the bound
	// are not expanded further. Zero means 24.
	MaxEvents int
	// MaxConfigs bounds the number of distinct configurations
	// explored; once reached, no further configurations are admitted,
	// the search stops with StopMaxConfigs and the configuration whose
	// expansion was rejected stays on the frontier. When the cap cuts a
	// parallel search, *which* configurations were admitted depends on
	// scheduling, so Terminated and Depth (unlike Explored and
	// Truncated) may vary between runs; use Workers 1 for a
	// deterministic truncated prefix.
	MaxConfigs int
	// Workers sets the parallelism; 0 means GOMAXPROCS, 1 is serial.
	Workers int
	// POR enables independence-based partial-order reduction: sleep
	// sets plus a persistent-set heuristic driven by the model's
	// per-step commutation oracle (see por.go). The reduced search
	// reaches every terminated configuration of the full search and
	// preserves interleavings around labelled program points, but
	// skips intermediate configurations whose interleavings commute —
	// a Property that inspects arbitrary state components may
	// therefore miss violations that only occur at skipped
	// configurations (a reported violation is always real). Audit
	// checks a workload's reduced search against its full search.
	POR bool
	// Property, when non-nil, is evaluated once at every distinct
	// reachable configuration; the first configuration where it
	// returns false is reported as a violation and stops the search.
	// With Workers > 1 the property is called concurrently from
	// multiple workers and must be safe for concurrent use.
	Property func(model.Config) bool
	// TypedProperty is the monomorphised form of Property: a
	// func(C) bool where C is the concrete configuration type of the
	// backend being explored (core.Config or sc.Config). When set it
	// replaces Property on the hot path, sparing the engine one
	// interface boxing per explored configuration. Setting it with a
	// function type that does not match the backend is a programming
	// error and panics, and so is setting both TypedProperty and
	// Property — a silently ignored property would turn violations
	// into spurious PROVED verdicts. The same concurrency contract as
	// Property applies.
	TypedProperty any

	// Context is the search's one wall-clock and cancellation input:
	// when it is done the engine stops at a safe point and returns a
	// sound partial Result — with StopDeadline when its deadline
	// expired (context.DeadlineExceeded), StopCancelled for any other
	// end (an explicit cancel, a signal, a cancelled parent). Bound
	// the wall clock with context.WithTimeout or WithDeadline. Nil
	// means no time budget.
	Context context.Context
	// MaxMemBytes, when positive, bounds the process heap: a watcher
	// polls runtime.MemStats every MemPoll and stops the search with
	// StopMemory when HeapAlloc exceeds the bound. The bound is
	// process-global and advisory (polling can overshoot by up to one
	// interval of allocation).
	MaxMemBytes uint64
	// MemPoll is the MemStats polling interval; zero means 25ms.
	MemPoll time.Duration
	// Hooks, when non-nil, observes the engine on the expansion path
	// (see Hooks); internal/faultinject implements it to inject worker
	// panics, latency and allocation pressure.
	Hooks Hooks
	// Metrics, when non-nil, receives engine counters through
	// per-worker telemetry cells — expansions, successors, admissions,
	// fingerprint dedup hits, POR-pruned steps, pool claims and steals,
	// parked time — plus live frontier, frontier-peak and max-depth
	// gauges.
	// Build it with telemetry.NewEngineRegistry; snapshot it during or
	// after the search (the registry is safe for concurrent use and
	// may be shared across searches, accumulating totals). When nil,
	// all metric accounting is disabled and the hot path takes only
	// nil-check branches: zero added allocations, enforced by the
	// perfgate CI job.
	Metrics *telemetry.Registry
	// Tracer, when non-nil, receives structured JSONL trace records:
	// search and worker lifecycle spans, periodic expansion-batch
	// counter samples, and stop/panic instants. The stream
	// converts to Chrome trace_event format via `c11 trace`. Tracing
	// is deliberately coarse (never per-successor), so it stays cheap
	// on large searches. Nil disables it.
	Tracer *telemetry.Tracer

	// CheckCollisions audits the fingerprints against the exact
	// canonical string keys (model.Config.Key): every configuration
	// the search fingerprints, fresh or duplicate, also has its key
	// computed and recorded beside the seen-set, and distinct keys
	// whose 128-bit fingerprints coincide are counted in
	// Result.FingerprintCollisions. Deduplication itself stays by
	// fingerprint, so the audited search is the ordinary one. This is a
	// debug mode: it pays the allocation-heavy key construction the
	// fingerprints replaced, and building every candidate successor —
	// duplicates included — to have a key.
	CheckCollisions bool
	// CheckIncremental audits the model's incrementally maintained
	// derived structures: at every admitted configuration
	// model.Config.AuditIncremental recomputes them from first
	// principles, and the number of disagreements accumulates in
	// Result.ClosureMismatches. Under the RAR backend this restores
	// the from-scratch Floyd–Warshall cost per state (hb/eco/comb
	// closures, observability sets, indexes); under SC it re-hashes
	// the store. It also audits the engine's fingerprint-first
	// expansion: every configuration the engine builds must have the
	// Fingerprint its backend predicted for it (the value it was
	// deduplicated by), and each disagreement counts as a mismatch.
	// The expected mismatch count is always zero.
	CheckIncremental bool

	// collect, when non-nil, observes every admitted configuration's
	// fingerprint and whether it is terminated. Used by Audit to
	// gather reachable sets; must be safe for concurrent use when
	// Workers > 1.
	collect func(fp fingerprint.FP, terminated bool)
	// witness, when non-nil, receives the parent link of every
	// admitted configuration. Only FindTrace sets it, on a serial
	// search, so the map needs no lock.
	witness map[fingerprint.FP]witnessLink
}

// witnessLink records how a configuration was first reached: the
// fingerprint of the configuration whose expansion admitted it (zero
// for the root) and the configuration itself.
type witnessLink struct {
	parent fingerprint.FP
	cfg    model.Config
}

func (o Options) maxEvents() int {
	if o.MaxEvents <= 0 {
		return 24
	}
	return o.MaxEvents
}

func (o Options) maxConfigs() int {
	if o.MaxConfigs <= 0 {
		return 1 << 20
	}
	return o.MaxConfigs
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Result summarises an exploration.
type Result struct {
	// Verdict is the tri-state outcome: PROVED (space exhausted within
	// the progress bound, no violation), VIOLATED (violation found) or
	// BOUNDED (a resource budget cut the search or panics degraded
	// it). A degraded or budget-cut search never reports PROVED.
	Verdict Verdict
	// Stop records which budget (if any) stopped the search.
	Stop StopCause
	// Explored counts distinct configurations visited.
	Explored int
	// Terminated counts configurations where every thread has
	// terminated.
	Terminated int
	// Truncated reports whether the progress or configuration bound
	// cut the search (so absence of a violation is relative to the
	// bound).
	Truncated bool
	// Violation is a configuration falsifying the property, nil if
	// none was found. It is always a really-reached configuration —
	// replayable by FindTrace with no budget — whatever budgets were
	// in force.
	Violation model.Config
	// Depth is the maximum over explored configurations of the
	// shortest transition distance from the initial configuration
	// (under POR: the shortest distance in the reduced graph).
	Depth int
	// Frontier counts configurations admitted but not yet (fully)
	// expanded when the search ended: zero at quiescence, positive
	// after a budget cut. Together with Explored it is the coverage
	// statistic of a partial result.
	Frontier int
	// Panics holds one repro artifact per isolated worker panic; the
	// rest of the search continued in degraded mode.
	Panics []PanicRecord
	// FingerprintCollisions counts distinct canonical keys that
	// shared a fingerprint; only populated under CheckCollisions.
	FingerprintCollisions int
	// ClosureMismatches counts disagreements between the model's
	// incrementally maintained structures and their from-scratch
	// recomputation across all admitted configurations, plus built
	// successors whose Fingerprint differs from its prediction; only
	// populated under CheckIncremental.
	ClosureMismatches int
}

// Trace is a witness path through the state space.
type Trace struct {
	Configs []model.Config
}

// Describe renders the trace step by step: for each transition, the
// model's label for it (the event added under RAR, the store entry
// written under SC, τ otherwise) and the resulting per-thread residual
// programs.
func (tr Trace) Describe() string {
	var b []byte
	appendLine := func(s string) { b = append(b, s...); b = append(b, '\n') }
	for i, c := range tr.Configs {
		if i == 0 {
			appendLine("start: " + c.Program().String())
			continue
		}
		label := c.DeltaLabel(tr.Configs[i-1])
		appendLine(fmt.Sprintf("%3d. %-22s %s", i, label, c.Program()))
	}
	return string(b)
}

// FindTrace searches (serially, breadth-first, always without
// partial-order reduction — a witness search must see every
// intermediate configuration) for a configuration satisfying pred and
// returns the shortest witness trace to it. found is false when no
// such configuration exists within the bounds or before opts.Context
// is done — callers that must tell those apart check the context.
// Only the MaxEvents and MaxConfigs bounds and the Context of opts
// apply: the search is Run at Workers=1 with !pred as the property, so
// it sees exactly Run's bounded graph, and the witness is the chain of
// parent links back from the violation.
func FindTrace(c model.Config, opts Options, pred func(model.Config) bool) (Trace, bool) {
	links := map[fingerprint.FP]witnessLink{}
	res := Run(c, Options{
		MaxEvents:  opts.MaxEvents,
		MaxConfigs: opts.MaxConfigs,
		Context:    opts.Context,
		Workers:    1,
		Property:   func(c model.Config) bool { return !pred(c) },
		witness:    links,
	})
	if res.Violation == nil {
		return Trace{}, false
	}
	// The links form the BFS tree; the walk ends past the root, whose
	// parent is the zero fingerprint.
	var tr Trace
	for l, ok := links[res.Violation.Fingerprint()]; ok; l, ok = links[l.parent] {
		tr.Configs = append(tr.Configs, l.cfg)
	}
	slices.Reverse(tr.Configs)
	return tr, true
}
