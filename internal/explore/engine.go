package explore

// The generic engine. Everything on the per-successor hot path — the
// work pool (pool.go), the seen-set admission, expansion, the POR
// loop — is generic over the configuration type C, and Run
// instantiates it at each backend's concrete type (core.Config,
// sc.Config; see dispatch.go). Successors then flow through []C
// slices of struct values and item[C] deque entries with zero
// interface boxing; the boxed model.Config seam is only crossed at the
// edges (violation reporting, panic records, trace output), which are
// cold.
//
// The backend methods whose signatures mention the configuration type
// itself (building a successor, returning its interned program) cannot
// live on model.Config, so the engine's type constraint config[C] adds
// them: every backend call is a direct method call on C.
//
// Expansion is fingerprint first, build second: a backend enumerates
// a step's choices with predicted fingerprints (model.Choice), and the
// engine builds only the successors it keeps (see offer).

import (
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"repro/internal/fingerprint"
	"repro/internal/lang"
	"repro/internal/model"
	"repro/internal/telemetry"
)

// config is what the engine needs of a backend's concrete
// configuration type: the model.Config seam plus the typed methods
// that mention the type itself.
type config[C any] interface {
	model.Config
	// Node returns the configuration's interned program, which
	// memoises its enabled steps and POR plan.
	Node() *lang.Node
	// AppendStepChoices appends the choices of one enabled program
	// step to out, each with its successor's predicted fingerprint,
	// building nothing.
	AppendStepChoices(out []model.Choice, ps lang.ProgStep) []model.Choice
	// Build constructs the successor one choice of step ps describes.
	// Build after AppendStepChoices is the backend's one successor
	// construction (its AppendStepSuccessors is the same pair).
	Build(ps lang.ProgStep, ch model.Choice) C
}

const numShards = 64

// shard is one lock's share of the seen-set (seen.go).
type shard struct {
	mu   sync.Mutex
	seen seenTable
}

type item[C model.Config] struct {
	cfg C
	fp  fingerprint.FP
}

type run[C config[C]] struct {
	opts Options
	// property is the per-state safety check; nil when none.
	property func(C) bool
	nInit    int
	maxEv    int
	maxCfg   int

	shards [numShards]shard
	pool   pool[C]

	explored   atomic.Int64
	terminated atomic.Int64
	truncated  atomic.Bool
	mismatches atomic.Int64
	violation  atomic.Pointer[model.Config]

	// stop is the first stop cause (first-wins), which workers poll and
	// Result.Stop reports. See budget.go.
	stop atomic.Int32

	panicMu sync.Mutex
	panics  []PanicRecord

	// tel and tracer are the observability sinks (both may be nil; the
	// telemetry package's methods are nil-safe, so the hot path calls
	// them unconditionally and the disabled configuration costs only
	// nil checks).
	tel    *telemetry.Registry
	tracer *telemetry.Tracer

	// keys is the CheckCollisions collector (nil otherwise); it sits
	// beside the seen-set, never in it.
	keys *keyAudit
}

// runAs explores the state space of c through one backend's typed
// methods. Run (dispatch.go) picks the instantiation.
func runAs[C config[C]](c C, opts Options) Result {
	r := &run[C]{
		opts:     opts,
		property: typedProperty[C](opts),
		maxEv:    opts.maxEvents(),
		maxCfg:   opts.maxConfigs(),
		nInit:    c.Progress(),
		tel:      opts.Metrics,
		tracer:   opts.Tracer,
	}
	r.pool.init(opts.workers(), opts.Metrics)
	if opts.CheckCollisions {
		r.keys = newKeyAudit()
	}
	if r.tracer != nil {
		r.tracer.Emit(telemetry.Record{Type: "begin", Name: "search", Worker: -1,
			Args: map[string]any{"workers": opts.workers(), "max_events": r.maxEv, "por": opts.POR}})
	}
	r.admit(&worker{cell: r.tel.Cell(0)}, c, c.Fingerprint(), fingerprint.FP{}, 0, 0)
	r.execute()
	res := r.finalize()
	if r.tracer != nil {
		r.tracer.End("search", -1, map[string]any{
			"verdict": res.Verdict.String(), "stop": res.Stop.String(),
			"explored": res.Explored, "frontier": res.Frontier})
	}
	return res
}

func (r *run[C]) shardOf(fp fingerprint.FP) *shard {
	return &r.shards[fp.Lo%numShards]
}

// admit deduplicates and registers cfg, whose fingerprint is fp,
// reached from the configuration with fingerprint parent, at depth d
// with sleep mask sleep, updating counters and queueing it when
// expandable. It is the authority on freshness: expand's probe may
// have found fp unseen, but another worker can admit it in between.
// Re-discoveries at a shorter depth or with a smaller sleep mask relax
// the recorded values and re-queue already-expanded entries so the
// improvements propagate. It returns false when the caller must stop
// expanding: the admission was rejected by the MaxConfigs budget or
// cfg violated the property — either way the search is stopping and
// the parent must stay on the frontier. A configuration the engine
// does not keep (deduplicated without being re-queued, or rejected) is
// left to the garbage collector. w is the calling worker, whose deque
// receives the queued configuration.
func (r *run[C]) admit(w *worker, cfg C, fp, parent fingerprint.FP, d int32, sleep threadMask) bool {
	// Everything that calls into model code runs outside the shard
	// lock: model methods may be expensive, and under fault injection
	// they may panic — a panic below never wedges a shard mutex.
	if r.keys != nil {
		r.keys.observe(fp, cfg.Key())
	}
	term := cfg.Terminated()
	atBound := cfg.Progress()-r.nInit >= r.maxEv
	sh := r.shardOf(fp)

	sh.mu.Lock()
	if e := sh.seen.find(fp); e != nil {
		// Known configuration: relax depth and sleep mask.
		requeue := r.rediscovered(w.cell, sh, e, d, sleep)
		if requeue {
			r.pool.push(w.id, item[C]{cfg: cfg, fp: fp})
		}
		return true
	}
	// Fresh configuration: honour the MaxConfigs admission cap.
	n := r.explored.Add(1)
	if int(n) > r.maxCfg {
		r.explored.Add(-1)
		r.truncated.Store(true)
		sh.mu.Unlock()
		// The rejected configuration is not recorded anywhere, so the
		// parent's expansion is incomplete: the caller re-queues it,
		// keeping the frontier sound.
		r.stopWith(StopMaxConfigs)
		return false
	}
	// Configurations at the progress bound stay expandable: their
	// memory successors are suppressed (expand filters them), but
	// silent steps add no events and must keep draining — otherwise
	// whether a terminated configuration at exactly the bound is found
	// would depend on which interleaving the search (full or reduced)
	// happens to take to it, since only some orders leave silent steps
	// for last. Draining makes the bounded terminated set a function
	// of the bound alone, which the POR and worker audits rely on.
	sh.seen.insert(fp, newEntry(d, sleep, term))
	sh.mu.Unlock()

	w.cell.Add(telemetry.EngineAdmitted, 1)
	r.tel.MaxGauge(telemetry.EngineGaugeDepth, int64(d))
	if term {
		r.terminated.Add(1)
		w.cell.Add(telemetry.EngineTerminated, 1)
	} else if atBound {
		r.truncated.Store(true)
	}
	// The hooks run outside every lock, like the property: the audit
	// only touches the admitted configuration's own state, the
	// collector is documented as concurrently callable, and witness
	// links are only recorded by serial searches.
	if r.opts.witness != nil {
		r.opts.witness[fp] = witnessLink{parent: parent, cfg: cfg}
	}
	if r.opts.collect != nil {
		r.opts.collect(fp, term)
	}
	if r.opts.CheckIncremental {
		if bad := cfg.AuditIncremental(); len(bad) > 0 {
			r.mismatches.Add(int64(len(bad)))
		}
	}
	// The property runs outside every lock; it may be expensive and is
	// documented as concurrently callable. A property that panics leaves
	// cfg admitted, so it runs once per configuration however many paths
	// reach it; process records the panic against the parent.
	if r.property != nil && !r.property(cfg) {
		mc := model.Config(cfg)
		r.violation.CompareAndSwap(nil, &mc)
		r.stopWith(StopViolation)
		// The violating configuration is admitted (it is in the seen
		// set), but the parent's remaining successors are not: the
		// parent returns to the frontier with the rest of its work.
		return false
	}
	if !term {
		r.pool.push(w.id, item[C]{cfg: cfg, fp: fp})
	}
	return true
}

// rediscovered relaxes the known entry e of shard sh (whose lock the
// caller holds and this releases) with a re-discovery at depth d with
// sleep mask sleep, counts it, and reports whether the configuration
// must be re-queued.
func (r *run[C]) rediscovered(cell *telemetry.Cell, sh *shard, e *entry, d int32, sleep threadMask) (requeue bool) {
	requeue = e.relax(d, sleep)
	sh.mu.Unlock()
	cell.Add(telemetry.EngineDedupHits, 1)
	if requeue {
		cell.Add(telemetry.EngineRequeues, 1)
	}
	return requeue
}

// claim marks it as being expanded and returns the depth and sleep
// mask to expand at, or ok=false when the entry has already been
// expanded at its current best depth and sleep mask (a stale
// re-queue).
func (r *run[C]) claim(it item[C]) (int32, threadMask, bool) {
	sh := r.shardOf(it.fp)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e := sh.seen.find(it.fp)
	if e == nil || e.expanded() {
		return 0, 0, false
	}
	e.expandedAt = e.depth()
	e.expandedSleep = e.sleep
	return e.expandedAt, e.sleep, true
}

// unclaim reverts a claim whose expansion did not complete (stop
// signal or budget rejection mid-expansion): the entry becomes
// unexpanded again so the re-queued item counts on the frontier.
// Monotonicity is preserved: un-expanding never invalidates
// relaxations already propagated through admitted successors.
func (r *run[C]) unclaim(it item[C]) {
	sh := r.shardOf(it.fp)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e := sh.seen.find(it.fp); e != nil {
		e.expandedAt = -1
		e.expandedSleep = 0
	}
}

// recordPanic captures an isolated worker panic as a repro artifact.
// The entry stays claimed, so the run does not retry what is likely a
// deterministic panic.
func (r *run[C]) recordPanic(it item[C], d int32, v any) {
	rec := PanicRecord{
		FP:      it.fp,
		Depth:   int(d),
		Program: it.cfg.Program().String(),
		Err:     fmt.Sprint(v),
		Stack:   string(debug.Stack()),
	}
	// Snapshotting calls model code on a configuration whose expansion
	// just panicked; guard it so one bad state cannot take down the
	// degraded-mode guarantee.
	func() {
		defer func() { recover() }() //nolint:errcheck // best-effort artifact
		rec.Snapshot = it.cfg.AppendSnapshot(nil)
	}()
	r.panicMu.Lock()
	r.panics = append(r.panics, rec)
	r.panicMu.Unlock()
	r.tel.Add(telemetry.EnginePanics, 1)
	if r.tracer != nil {
		r.tracer.Instant("panic", -1, map[string]any{"depth": int(d), "err": rec.Err})
	}
}

// build constructs the successor choice ch of step ps describes.
// Under CheckIncremental it also audits the prediction: the built
// configuration's Fingerprint must equal the fingerprint the engine
// deduplicated it by, and each disagreement counts as a mismatch.
func (r *run[C]) build(parent C, ps lang.ProgStep, ch *model.Choice) C {
	s := parent.Build(ps, *ch)
	if r.opts.CheckIncremental && s.Fingerprint() != ch.FP {
		r.mismatches.Add(1)
	}
	return s
}

// worker is one worker's identity for a leg of the search: the index
// of its deque in the pool, its telemetry cell (nil when metrics are
// disabled) and its reusable expansion buffers — the choices of one
// expansion with the index of each choice's step and its child sleep
// mask.
type worker struct {
	id      int
	cell    *telemetry.Cell
	choices []model.Choice
	stepOf  []int
	sleeps  []threadMask
}

// expand enumerates the successor choices of it.cfg at depth d under
// sleep mask sl, then offers them for admission, and reports whether
// every choice was offered (false when a stop signal or budget
// rejection aborted the expansion). One loop enumerates the choices
// of the enabled steps, which — like the POR plan — the
// configuration's interned program has memoised. Under POR it skips
// the steps outside the plan's persistent set or asleep in sl and
// gives each choice its child sleep mask; otherwise — POR off, or a program too wide for
// masks — every step is expanded with an empty mask. At the progress
// bound only silent choices (same Progress) are admitted: memory
// choices are counted, then suppressed without being built, while
// silent chains drain to termination in the full and the reduced
// search alike (the reduction is bypassed there: the handful of
// silent-only frontier states is not worth planning over).
func (r *run[C]) expand(w *worker, it item[C], d int32, sl threadMask) bool {
	cfg := it.cfg
	cell := w.cell
	cell.Add(telemetry.EngineExpansions, 1)
	node := cfg.Node()
	steps := node.Steps()
	base := cfg.Progress()
	atBound := base-r.nInit >= r.maxEv
	var pl lang.Plan
	if r.opts.POR && !atBound {
		pl = node.Plan(cfg.StepsAcyclic())
	}
	var pruned uint64
	chs, stepOf, sleeps := w.choices[:0], w.stepOf[:0], w.sleeps[:0]
	for j, ps := range steps {
		var cs threadMask
		if pl.OK {
			b := maskBit(ps.T)
			if pl.Persist&b == 0 || sl&b != 0 {
				pruned++
				continue
			}
			cs = childSleep(pl, steps, sl, j)
		}
		chs = cfg.AppendStepChoices(chs, ps)
		for len(sleeps) < len(chs) {
			stepOf = append(stepOf, j)
			sleeps = append(sleeps, cs)
		}
	}
	w.choices, w.stepOf, w.sleeps = chs, stepOf, sleeps
	cell.Add(telemetry.EngineSuccessors, uint64(len(chs)))
	if pruned != 0 {
		cell.Add(telemetry.EnginePORPruned, pruned)
	}
	for i := range chs {
		if atBound && chs[i].Progress > base {
			// Memory step: suppressed by the bound, never built.
			cell.Add(telemetry.EngineBoundSuppressed, 1)
			continue
		}
		if r.stop.Load() != 0 {
			return false
		}
		if !r.offer(w, it, steps[stepOf[i]], &chs[i], d+1, sleeps[i]) {
			return false
		}
	}
	return true
}

// offer admits the successor of it.cfg that choice ch of step ps
// describes, at depth d with sleep mask sleep, building it only when
// the engine will hold on to it. The prediction is probed first: a
// known fingerprint is relaxed in place and the successor is built
// only if the entry must be re-queued. An unseen one is built and
// handed to admit, which re-checks freshness — a worker that loses
// the race between probe and admission pays one wasted build, not
// a wrong answer. Under CheckCollisions every choice is built, since
// the audit compares every candidate's Key. It reports admit's result.
func (r *run[C]) offer(w *worker, it item[C], ps lang.ProgStep, ch *model.Choice, d int32, sleep threadMask) bool {
	if r.keys == nil {
		sh := r.shardOf(ch.FP)
		sh.mu.Lock()
		if e := sh.seen.find(ch.FP); e != nil {
			if r.rediscovered(w.cell, sh, e, d, sleep) {
				r.pool.push(w.id, item[C]{cfg: r.build(it.cfg, ps, ch), fp: ch.FP})
			}
			return true
		}
		sh.mu.Unlock()
	}
	return r.admit(w, r.build(it.cfg, ps, ch), ch.FP, it.fp, d, sleep)
}

// process claims and expands one item, isolating panics from model
// code: a panic is captured as a repro artifact (the entry stays
// claimed) and the worker moves on — the rest of the search finishes
// in degraded mode. An expansion aborted by a stop signal or budget
// rejection is unclaimed and re-queued so the frontier stays sound.
func (r *run[C]) process(w *worker, it item[C]) {
	d, sl, live := r.claim(it)
	if !live {
		w.cell.Add(telemetry.EngineStaleClaims, 1)
		return
	}
	completed := false
	defer func() {
		if v := recover(); v != nil {
			r.recordPanic(it, d, v)
			return
		}
		if !completed {
			r.unclaim(it)
			r.pool.push(w.id, it)
		}
	}()
	if r.opts.Hooks != nil {
		r.opts.Hooks.BeforeExpand(it.fp, int(d))
	}
	completed = r.expand(w, it, d, sl)
}

// traceBatchEvery is how many processed items a worker batches
// between expansion-batch trace samples — coarse enough that tracing
// a large search stays cheap.
const traceBatchEvery = 1024

// work drains the pool as worker id until it quiesces or is stopped.
func (r *run[C]) work(id int) {
	w := &worker{id: id, cell: r.tel.Cell(id)}
	r.tracer.Begin("worker", id)
	var processed uint64
	for {
		it, ok := r.pool.pop(id, w.cell)
		if !ok {
			break
		}
		if r.stop.Load() != 0 {
			// A stop signal raced past the pool flag (stopWith sets it
			// before stopping the pool): hand the item back untouched
			// and exit.
			r.pool.push(id, it)
			r.pool.done(id)
			break
		}
		w.cell.Add(telemetry.EnginePoolClaims, 1)
		r.process(w, it)
		r.pool.done(id)
		if processed++; r.tracer != nil && processed%traceBatchEvery == 0 {
			r.tracer.Count("expansion_batch", id, map[string]any{
				"expansions": w.cell.Get(telemetry.EngineExpansions),
				"explored":   r.explored.Load(),
			})
		}
	}
	if r.tracer != nil {
		r.tracer.End("worker", id, map[string]any{"claims": w.cell.Get(telemetry.EnginePoolClaims)})
	}
}

// execute drains the pool until quiescence or a stop. The budget
// monitor (if any budget is set) runs alongside the workers.
func (r *run[C]) execute() {
	if ctx := r.opts.Context; ctx != nil && ctx.Err() != nil {
		// Already spent: cut before any worker starts, so even a
		// search too short for the monitor to catch reports it.
		r.stopWith(contextStop(ctx))
	}
	if r.needMonitor() {
		monDone := make(chan struct{})
		defer close(monDone)
		go r.monitor(monDone)
	}
	n := len(r.pool.deques)
	if n == 1 {
		// Serial is the same engine with the one worker run inline:
		// its deque is a FIFO, so the search is breadth-first and the
		// truncated prefix deterministic.
		r.work(0)
		return
	}
	// Each worker owns a deque and descends depth-first through its own
	// successors; the others steal its oldest items (see pool.go).
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			r.work(id)
		}(i)
	}
	wg.Wait()
}

// finalize computes the Result after all workers have exited.
func (r *run[C]) finalize() Result {
	var res Result
	res.Explored = int(r.explored.Load())
	res.Terminated = int(r.terminated.Load())
	res.Truncated = r.truncated.Load()
	if v := r.violation.Load(); v != nil {
		res.Violation = *v
	}
	res.Stop = StopCause(r.stop.Load())
	res.Panics = r.panics
	res.FingerprintCollisions = r.keys.collisions()
	res.ClosureMismatches = int(r.mismatches.Load())
	seenBytes := 0
	for i := range r.shards {
		t := &r.shards[i].seen
		for _, e := range t.all {
			res.Depth = max(res.Depth, int(e.depth()))
		}
		seenBytes += t.bytes()
	}
	r.tel.SetGauge(telemetry.EngineGaugeSeenBytes, int64(seenBytes))
	res.Frontier = r.frontier()
	switch {
	case res.Violation != nil:
		res.Verdict = VerdictViolated
	case res.Stop != StopNone || len(res.Panics) > 0:
		res.Verdict = VerdictBounded
	default:
		res.Verdict = VerdictProved
	}
	return res
}

// frontier counts the configurations admitted but not fully expanded,
// deduplicated by fingerprint: the deques' remainders (minus stale
// re-queues) plus panicked configurations, which stay claimed but are
// unexpanded work. Only called after the workers have exited — it
// reads the pool and shards unlocked.
func (r *run[C]) frontier() int {
	open := make(map[fingerprint.FP]bool)
	for i := range r.pool.deques {
		d := &r.pool.deques[i]
		for _, it := range d.items[d.head:] {
			if e := r.shardOf(it.fp).seen.find(it.fp); e != nil && !e.term() && !e.expanded() {
				open[it.fp] = true
			}
		}
	}
	for _, p := range r.panics {
		open[p.FP] = true
	}
	return len(open)
}
