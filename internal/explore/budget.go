package explore

// Resource governance: every exploration can be bounded by its context
// (the one clock and cancel input), a state budget and a memory
// budget, and reports how (and whether) it was cut through a StopCause
// and a tri-state Verdict. One atomic on the run, stop, carries the
// signal: the first cause wins it (CAS from zero) and is never
// overwritten, workers poll it between admissions, and Result.Stop
// reports it.
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
	"runtime"
	"time"

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
	// StopMemory: the heap exceeded MaxMemBytes.
	StopMemory
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
	case StopMemory:
		return "memory"
	default:
		return fmt.Sprintf("StopCause(%d)", int32(c))
	}
}

// TimingDependent reports whether the cause cuts the search at a
// scheduling-dependent point (wall clock, cancellation, memory
// pressure), making per-run statistics non-reproducible. A MaxConfigs
// cut is not timing-dependent: it always rejects exactly the same
// admission count, so Explored and Truncated stay comparable.
func (c StopCause) TimingDependent() bool {
	return c == StopDeadline || c == StopCancelled || c == StopMemory
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
	// memory, MaxConfigs) cut the search, or worker panics degraded
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

// Hooks observes the engine from the outside, build-tag-free. The one
// call site is on the expansion path inside the worker's recover
// scope, so a hook that panics exercises exactly the engine's panic
// isolation — which is how internal/faultinject injects worker faults
// without the engine importing it.
type Hooks interface {
	// BeforeExpand runs after a configuration is claimed for expansion
	// and before its successors are generated. It may sleep (latency
	// injection), allocate (memory-pressure injection) or panic (fault
	// injection). Called concurrently when Workers > 1.
	BeforeExpand(fp fingerprint.FP, depth int)
}

// PanicRecord is the shrinkable repro artifact of one isolated worker
// panic: the configuration being expanded when model code panicked.
// Snapshot restores (via Model.Restore) to the offending
// configuration, so `expand the restored config` reproduces a
// deterministic panic; Program is its residual program for human eyes
// and for the shrinker.
type PanicRecord struct {
	// FP is the fingerprint of the configuration whose expansion
	// panicked.
	FP fingerprint.FP
	// Depth is the depth it was claimed at.
	Depth int
	// Program renders the residual program.
	Program string
	// Snapshot is the configuration's binary snapshot
	// (model.Config.AppendSnapshot).
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

func (o Options) memPoll() time.Duration {
	if o.MemPoll > 0 {
		return o.MemPoll
	}
	return 25 * time.Millisecond
}

// needMonitor reports whether any budget requires the watcher
// goroutine; without one the engine spawns nothing extra.
func (r *run[C]) needMonitor() bool {
	return r.opts.Context != nil || r.opts.MaxMemBytes > 0
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

// monitor watches the budgets and converts the first exhaustion into a
// stop signal. It runs while the workers do and exits when done
// closes.
func (r *run[C]) monitor(done <-chan struct{}) {
	var memC <-chan time.Time
	if r.opts.MaxMemBytes > 0 {
		tk := time.NewTicker(r.opts.memPoll())
		defer tk.Stop()
		memC = tk.C
	}
	var ctxC <-chan struct{}
	if r.opts.Context != nil {
		ctxC = r.opts.Context.Done()
	}
	for {
		select {
		case <-done:
			return
		case <-ctxC:
			r.stopWith(contextStop(r.opts.Context))
			ctxC = nil
		case <-memC:
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > r.opts.MaxMemBytes {
				r.stopWith(StopMemory)
				memC = nil
			}
		}
	}
}
