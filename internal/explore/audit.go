package explore

import (
	"fmt"
	"sync"

	"repro/internal/fingerprint"
	"repro/internal/model"
)

// AuditReport is the result of Audit: three searches of one workload
// and the contracts between them, every count expected to be zero.
//
//   - Full, the unreduced search at the given parallelism, runs the
//     CheckIncremental and CheckCollisions audits, so its
//     ClosureMismatches and FingerprintCollisions are the audit's
//     first two counts.
//   - POR is the reduction's contract, Full against Reduced (the
//     serial reduced search): the property verdicts coincide — for
//     properties that inspect arbitrary intermediate state an
//     empirical check, since the reduction only guarantees it for
//     label-visible and terminated-state properties — and, when both
//     complete, the terminated fingerprint sets coincide and every
//     configuration Reduced explored is reachable in Full.
//   - Workers is the engine's serial/parallel contract, Reduced
//     against Parallel (the same reduced search at parallel width):
//     Explored, Truncated and the verdict agree even under a MaxConfigs
//     cut; Terminated, Depth and the terminated fingerprint sets are
//     compared when both complete.
//
// Set comparisons need complete searches (no violation, no MaxConfigs
// cut): an early stop leaves the sets arbitrary prefixes. A
// timing-dependent budget cut or isolated panics in any search stop
// each at a scheduling-dependent point, so then no contract is
// compared (Cut) rather than reporting noise.
type AuditReport struct {
	// Full, Reduced and Parallel are the three searches' results.
	Full, Reduced, Parallel Result
	// POR and Workers are the two pairwise contracts.
	POR, Workers Contract
	// Cut reports that a budget cut or panics left the contracts
	// uncompared.
	Cut bool
}

// Contract is one pairwise comparison of Audit's searches.
type Contract struct {
	// Diverged lists the result fields that disagreed.
	Diverged []string
	// MissingTerminated counts terminated configurations of the first
	// search the second never reached; ExtraTerminated the converse.
	MissingTerminated, ExtraTerminated int
	// UnsoundExplored counts configurations the reduced search
	// explored that the full search cannot reach (POR contract only).
	UnsoundExplored int
	// SetsCompared reports whether the fingerprint sets were diffed.
	SetsCompared bool
}

// Divergences returns the contract's number of violations.
func (k Contract) Divergences() int {
	return len(k.Diverged) + k.MissingTerminated + k.ExtraTerminated + k.UnsoundExplored
}

// note records field as diverged unless agree.
func (k *Contract) note(field string, agree bool) {
	if !agree {
		k.Diverged = append(k.Diverged, field)
	}
}

// diffTerminated diffs the terminated fingerprint sets of two searches.
func (k *Contract) diffTerminated(first, second *fpCollector) {
	k.SetsCompared = true
	k.MissingTerminated = first.terminated.MissingFrom(second.terminated)
	k.ExtraTerminated = second.terminated.MissingFrom(first.terminated)
}

// String renders the contract's counts.
func (k Contract) String() string {
	return fmt.Sprintf("diverged=%v missing-term=%d extra-term=%d unsound=%d",
		k.Diverged, k.MissingTerminated, k.ExtraTerminated, k.UnsoundExplored)
}

// Divergences returns the total number of audit failures.
func (a AuditReport) Divergences() int {
	return a.Full.ClosureMismatches + a.Full.FingerprintCollisions +
		a.POR.Divergences() + a.Workers.Divergences()
}

// String renders a one-line audit summary.
func (a AuditReport) String() string {
	s := fmt.Sprintf(
		"audit: full=%d reduced=%d (%.1f%%) parallel=%d divergences=%d (closure-mismatches=%d collisions=%d por: %s; workers: %s)",
		a.Full.Explored, a.Reduced.Explored,
		100*float64(a.Reduced.Explored)/float64(max(a.Full.Explored, 1)),
		a.Parallel.Explored, a.Divergences(),
		a.Full.ClosureMismatches, a.Full.FingerprintCollisions, a.POR, a.Workers)
	if a.Cut {
		s += " cut: contracts not compared"
	}
	return s
}

// Audit is the engine's one self-audit of a workload. It runs three
// searches under opts: the unreduced search at opts.Workers with the
// CheckIncremental and CheckCollisions audits on, the reduced search
// serially, and the reduced search at opts.Workers (GOMAXPROCS when
// that is ≤ 1); AuditReport describes what it compares. opts.POR is
// ignored.
func Audit(c model.Config, opts Options) AuditReport {
	full, reduced, parallel := newFPCollector(), newFPCollector(), newFPCollector()

	fo := opts
	fo.POR = false
	fo.CheckIncremental, fo.CheckCollisions = true, true
	fo.collect = full.observe

	ro := opts
	ro.POR = true
	ro.Workers = 1
	ro.CheckIncremental, ro.CheckCollisions = false, false
	ro.collect = reduced.observe

	po := ro
	po.Workers = opts.Workers
	if po.Workers <= 1 {
		po.Workers = 0
	}
	po.collect = parallel.observe

	a := AuditReport{Full: Run(c, fo), Reduced: Run(c, ro), Parallel: Run(c, po)}
	if budgetCut(a.Full) || budgetCut(a.Reduced) || budgetCut(a.Parallel) {
		a.Cut = true
		return a
	}

	a.POR.note("verdict", sameVerdict(a.Full, a.Reduced))
	if complete(a.Full) && complete(a.Reduced) {
		a.POR.diffTerminated(full, reduced)
		a.POR.UnsoundExplored = reduced.explored.MissingFrom(full.explored)
	}

	a.Workers.note("explored", a.Reduced.Explored == a.Parallel.Explored)
	a.Workers.note("truncated", a.Reduced.Truncated == a.Parallel.Truncated)
	a.Workers.note("verdict", sameVerdict(a.Reduced, a.Parallel))
	if complete(a.Reduced) && complete(a.Parallel) {
		a.Workers.note("terminated", a.Reduced.Terminated == a.Parallel.Terminated)
		a.Workers.note("depth", a.Reduced.Depth == a.Parallel.Depth)
		a.Workers.diffTerminated(reduced, parallel)
	}
	return a
}

// budgetCut reports whether the run was cut at a scheduling-dependent
// point — by a timing-dependent budget or by isolated panics — making
// its statistics incomparable to another run's.
func budgetCut(res Result) bool {
	return res.Stop.TimingDependent() || len(res.Panics) > 0
}

// complete reports whether the run reached its fixpoint: no violation
// stopped it early and no budget cut it.
func complete(res Result) bool {
	return res.Violation == nil && res.Stop == StopNone
}

// sameVerdict reports whether two runs agree on whether a property
// violation exists.
func sameVerdict(a, b Result) bool {
	return (a.Violation == nil) == (b.Violation == nil)
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
// seen-set, so the audited search keeps the one seen-set shape.
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
