package explore

import (
	"fmt"
	"sync"

	"repro/internal/fingerprint"
	"repro/internal/model"
)

// PORAudit is the result of auditing a partial-order-reduced search
// against the full search on the same workload (CheckPOR). The
// reduction's contract has three checkable parts:
//
//   - soundness: every configuration the reduced search explores is
//     reachable in the full search (the reduced transition relation is
//     a subset of the full one), so UnsoundExplored must be zero;
//   - terminated-state preservation: the reduced search reaches
//     exactly the terminated configurations of the full search, so
//     MissingTerminated and ExtraTerminated must be zero;
//   - verdict agreement: the property verdicts coincide, so
//     VerdictDiverged must be false. (For properties that inspect
//     arbitrary intermediate state this is an empirical check — the
//     reduction only guarantees it for label-visible and
//     terminated-state properties.)
//
// The fingerprint-set comparisons are only meaningful when both runs
// complete (no violation, no MaxConfigs cut); CheckPOR skips them —
// leaving the counts zero — when either run stops early.
type PORAudit struct {
	// Full and Reduced are the two runs' results.
	Full, Reduced Result
	// MissingTerminated counts terminated configurations of the full
	// search the reduced search never reached (must be zero).
	MissingTerminated int
	// ExtraTerminated counts terminated configurations of the reduced
	// search absent from the full search (must be zero).
	ExtraTerminated int
	// UnsoundExplored counts configurations the reduced search
	// explored that the full search cannot reach (must be zero).
	UnsoundExplored int
	// VerdictDiverged reports disagreement on whether a property
	// violation exists.
	VerdictDiverged bool
	// SetsCompared reports whether the fingerprint sets were diffed
	// (false when a violation or the MaxConfigs cap stopped a run).
	SetsCompared bool
}

// Divergences returns the total number of contract violations.
func (a PORAudit) Divergences() int {
	n := a.MissingTerminated + a.ExtraTerminated + a.UnsoundExplored
	if a.VerdictDiverged {
		n++
	}
	return n
}

// String renders a one-line audit summary.
func (a PORAudit) String() string {
	return fmt.Sprintf(
		"por audit: full=%d reduced=%d (%.1f%%) divergences=%d (missing-term=%d extra-term=%d unsound=%d verdict-diverged=%v)",
		a.Full.Explored, a.Reduced.Explored,
		100*float64(a.Reduced.Explored)/float64(max(a.Full.Explored, 1)),
		a.Divergences(), a.MissingTerminated, a.ExtraTerminated,
		a.UnsoundExplored, a.VerdictDiverged)
}

// budgetCut reports whether the run was cut at a scheduling-dependent
// point — by a timing-dependent budget or by isolated panics — making
// its statistics incomparable to another run's.
func budgetCut(res Result) bool {
	return res.Stop.TimingDependent() || len(res.Panics) > 0
}

// fpCollector gathers the reachable and terminated fingerprint sets of
// one run, mutex-guarded for parallel workers.
type fpCollector struct {
	mu         sync.Mutex
	explored   *fingerprint.Set
	terminated *fingerprint.Set
}

func newFPCollector() *fpCollector {
	return &fpCollector{
		explored:   fingerprint.NewSet(),
		terminated: fingerprint.NewSet(),
	}
}

func (c *fpCollector) observe(fp fingerprint.FP, terminated bool) {
	c.mu.Lock()
	c.explored.Add(fp)
	if terminated {
		c.terminated.Add(fp)
	}
	c.mu.Unlock()
}

// keyAudit is the CheckCollisions collector: it maps every fingerprint
// the search computes to the first exact canonical key seen with it,
// and collects the distinct keys that later arrive under a fingerprint
// already holding another. It has its own lock and sits beside the
// seen-set, so the audited search keeps the one seen-set shape — and
// checkpoints and resumes like any other.
type keyAudit struct {
	mu        sync.Mutex
	keyOf     map[fingerprint.FP]string
	colliding map[string]bool
}

func newKeyAudit() *keyAudit {
	return &keyAudit{keyOf: map[fingerprint.FP]string{}, colliding: map[string]bool{}}
}

func (a *keyAudit) observe(fp fingerprint.FP, key string) {
	a.mu.Lock()
	if prev, ok := a.keyOf[fp]; !ok {
		a.keyOf[fp] = key
	} else if prev != key {
		a.colliding[key] = true
	}
	a.mu.Unlock()
}

// collisions counts the colliding keys; zero when the audit is off.
func (a *keyAudit) collisions() int {
	if a == nil {
		return 0
	}
	return len(a.colliding)
}

// WorkersAudit is the result of auditing the engine's serial/parallel
// equivalence contract on one workload (CheckWorkers): at quiescence
// the sharded engine's results are documented to be independent of the
// worker count whenever no MaxConfigs cut occurred. Explored and
// Truncated must agree even under a cut; Terminated, Depth and the
// terminated-state fingerprint sets are only compared (SetsCompared)
// when both runs completed.
type WorkersAudit struct {
	// Serial and Parallel are the Workers=1 and Workers=N results.
	Serial, Parallel Result
	// StatsDiverged lists the result fields that disagreed.
	StatsDiverged []string
	// MissingTerminated and ExtraTerminated count terminated-state
	// fingerprints reached by exactly one of the runs (must be zero).
	MissingTerminated, ExtraTerminated int
	// SetsCompared reports whether the full comparison ran (false when
	// a violation or the MaxConfigs cap stopped a run).
	SetsCompared bool
}

// Divergences returns the total number of contract violations.
func (a WorkersAudit) Divergences() int {
	return len(a.StatsDiverged) + a.MissingTerminated + a.ExtraTerminated
}

// String renders a one-line audit summary.
func (a WorkersAudit) String() string {
	return fmt.Sprintf(
		"workers audit: serial=%d parallel=%d divergences=%d (stats=%v missing-term=%d extra-term=%d)",
		a.Serial.Explored, a.Parallel.Explored, a.Divergences(),
		a.StatsDiverged, a.MissingTerminated, a.ExtraTerminated)
}

// CheckWorkers runs the workload serially (Workers=1) and with the
// given parallelism and diffs the results — the oracle behind the
// fuzzing harness's serial-vs-parallel equivalence check, and the
// programmatic form of the equivalence the repository's root tests
// assert on the hand-written suite. workers ≤ 1 defaults to
// GOMAXPROCS-sized parallelism (Options.Workers = 0).
func CheckWorkers(c model.Config, opts Options, workers int) WorkersAudit {
	serialFPs := newFPCollector()
	so := opts
	so.Workers = 1
	so.collect = serialFPs.observe
	parFPs := newFPCollector()
	po := opts
	po.Workers = workers
	if workers <= 1 {
		po.Workers = 0
	}
	po.collect = parFPs.observe

	var a WorkersAudit
	a.Serial = Run(c, so)
	a.Parallel = Run(c, po)

	// A timing-dependent budget cut (deadline, cancellation, memory)
	// or a degraded run stops each search at an arbitrary,
	// scheduling-dependent point: no statistic is comparable, so the
	// audit reports nothing rather than noise.
	if budgetCut(a.Serial) || budgetCut(a.Parallel) {
		return a
	}

	diverged := func(field string, ok bool) {
		if !ok {
			a.StatsDiverged = append(a.StatsDiverged, field)
		}
	}
	diverged("explored", a.Serial.Explored == a.Parallel.Explored)
	diverged("truncated", a.Serial.Truncated == a.Parallel.Truncated)
	diverged("verdict", (a.Serial.Violation == nil) == (a.Parallel.Violation == nil))

	complete := a.Serial.Violation == nil && a.Parallel.Violation == nil &&
		a.Serial.Stop == StopNone && a.Parallel.Stop == StopNone
	if complete {
		a.SetsCompared = true
		diverged("terminated", a.Serial.Terminated == a.Parallel.Terminated)
		diverged("depth", a.Serial.Depth == a.Parallel.Depth)
		a.MissingTerminated = serialFPs.terminated.MissingFrom(parFPs.terminated)
		a.ExtraTerminated = parFPs.terminated.MissingFrom(serialFPs.terminated)
	}
	return a
}

// CheckPOR runs the workload twice — once with partial-order reduction
// and once without, both under the given options — and diffs the
// searches: reachable- and terminated-state fingerprint sets and the
// property verdicts, in the style of the CheckIncremental and
// CheckCollisions audits. Zero Divergences certifies the reduction on
// this workload. The cost is the full search plus the reduced one.
func CheckPOR(c model.Config, opts Options) PORAudit {
	full := newFPCollector()
	fo := opts
	fo.POR = false
	fo.collect = full.observe
	reduced := newFPCollector()
	ro := opts
	ro.POR = true
	ro.collect = reduced.observe

	var a PORAudit
	a.Full = Run(c, fo)
	a.Reduced = Run(c, ro)

	// Under a timing-dependent budget cut or a degraded run the
	// verdicts legitimately differ (one search may be cut before the
	// violation); report nothing.
	if budgetCut(a.Full) || budgetCut(a.Reduced) {
		return a
	}
	a.VerdictDiverged = (a.Full.Violation == nil) != (a.Reduced.Violation == nil)

	// Set diffs only make sense when both searches ran to their bound:
	// an early stop (violation, MaxConfigs) leaves the sets arbitrary
	// prefixes.
	complete := a.Full.Violation == nil && a.Reduced.Violation == nil &&
		a.Full.Stop == StopNone && a.Reduced.Stop == StopNone
	if complete {
		a.SetsCompared = true
		a.MissingTerminated = full.terminated.MissingFrom(reduced.terminated)
		a.ExtraTerminated = reduced.terminated.MissingFrom(full.terminated)
		a.UnsoundExplored = reduced.explored.MissingFrom(full.explored)
	}
	return a
}
