package explore

// Resource governance: every exploration can be bounded by its context
// (the one clock and cancel input, and the engine's only asynchronous
// stop) and a state budget, and reports how (and whether) it was cut
// through a StopCause and a tri-state Verdict. One atomic on the run,
// stop, carries the signal: the first cause wins it (CAS from zero)
// and is never overwritten, workers poll it between admissions, and
// Result.Stop reports it.
//
// Soundness under a cut: a worker whose expansion is interrupted (by a
// stop signal, a rejected admission, or a panic in model code) leaves
// its configuration unexpanded — the entry is unclaimed and re-queued
// (or, for panics, captured as a repro artifact) — so the frontier
// always accounts for every configuration whose successors have not
// all been admitted. That is what makes a partial Result honest.

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/fingerprint"
)

// StopCause identifies what cut an exploration short.
type StopCause int32

const (
	// StopNone: the search ran to quiescence (within the MaxEvents
	// progress bound — Result.Truncated reports that cut separately).
	StopNone StopCause = iota
	// StopViolation: a property violation stopped the search.
	StopViolation
	// StopMaxConfigs: the MaxConfigs state budget rejected an
	// admission.
	StopMaxConfigs
	// StopDeadline: Options.Context's deadline expired
	// (context.DeadlineExceeded).
	StopDeadline
	// StopCancelled: Options.Context was cancelled for any other
	// reason — an explicit cancel, a signal, a cancelled parent.
	StopCancelled
)

func (c StopCause) String() string {
	switch c {
	case StopNone:
		return "none"
	case StopViolation:
		return "violation"
	case StopMaxConfigs:
		return "max-configs"
	case StopDeadline:
		return "deadline"
	case StopCancelled:
		return "cancelled"
	default:
		return fmt.Sprintf("StopCause(%d)", int32(c))
	}
}

// TimingDependent reports whether the cause cuts the search at a
// scheduling-dependent point (wall clock, cancellation), making
// per-run statistics non-reproducible. A MaxConfigs
// cut is not timing-dependent: it always rejects exactly the same
// admission count, so Explored and Truncated stay comparable.
func (c StopCause) TimingDependent() bool {
	return c == StopDeadline || c == StopCancelled
}

// Verdict is the tri-state outcome of a bounded search.
type Verdict int

const (
	// VerdictProved: the state space was exhausted (within the
	// MaxEvents progress bound) and no violation was found. Absence of
	// a violation is relative to that bound — Result.Truncated reports
	// whether the bound actually cut anything — but not to any resource
	// budget: a budget-cut or degraded search never reports PROVED.
	VerdictProved Verdict = iota
	// VerdictViolated: a property violation was found. The violating
	// configuration is real and replayable regardless of any budget.
	VerdictViolated
	// VerdictBounded: a resource budget (deadline, cancellation,
	// MaxConfigs) cut the search, or worker panics degraded
	// it, before the space was exhausted; the absence of a violation
	// is inconclusive.
	VerdictBounded
)

func (v Verdict) String() string {
	switch v {
	case VerdictProved:
		return "PROVED"
	case VerdictViolated:
		return "VIOLATED"
	case VerdictBounded:
		return "BOUNDED"
	default:
		return fmt.Sprintf("Verdict(%d)", int(v))
	}
}

// Hooks observes the engine from the outside, build-tag-free; tests
// implement it to drive the degradation paths. The one call site is on
// the expansion path inside the worker's recover scope, so a hook that
// panics exercises exactly the engine's panic isolation.
type Hooks interface {
	// BeforeExpand runs after a configuration is claimed for expansion
	// and before its successors are generated. It may sleep (latency
	// against a deadline) or panic (fault injection).
	// Called concurrently when Workers > 1.
	BeforeExpand(fp fingerprint.FP, depth int)
}

// PanicRecord is the shrinkable repro artifact of one isolated worker
// panic: the configuration being expanded when model code panicked.
// Snapshot restores (via Model.Restore, given the search's root
// program) to the offending configuration, so `expand the restored
// config` reproduces a deterministic panic; Program is its residual
// program for human eyes and for the shrinker.
type PanicRecord struct {
	// FP is the fingerprint of the configuration whose expansion
	// panicked.
	FP fingerprint.FP
	// Depth is the depth it was claimed at.
	Depth int
	// Program renders the residual program.
	Program string
	// Snapshot is the configuration's binary snapshot
	// (model.Config.AppendSnapshot). It names the residual program by
	// its path from the root program, so restoring it needs that root.
	Snapshot []byte
	// Err renders the recovered panic value.
	Err string
	// Stack is the recovering goroutine's stack (best effort: the
	// frames below the worker have already unwound when the recover
	// runs; the snapshot is the faithful repro).
	Stack string
}

// stopWith signals a stop cause: the first caller wins the stop slot,
// and the pool is drained.
func (r *run[C]) stopWith(c StopCause) {
	if r.stop.CompareAndSwap(0, int32(c)) && r.tracer != nil {
		r.tracer.Instant("stop", -1, map[string]any{"cause": c.String()})
	}
	r.pool.stop()
}

// contextStop is the stop cause of a done context: StopDeadline for
// an expired deadline (context.DeadlineExceeded), StopCancelled for
// any other end — an explicit cancel, a signal, a cancelled parent.
func contextStop(ctx context.Context) StopCause {
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		return StopDeadline
	}
	return StopCancelled
}
