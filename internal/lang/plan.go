package lang

import "repro/internal/event"

// This file computes the static half of the explorer's partial-order
// reduction (internal/explore/por.go): which enabled steps of a
// program are visible to label-based properties, and which thread, if
// any, can be explored alone. Both are functions of the residual
// program and of one bit of the memory model (whether memory steps can
// close cycles), never of the memory state, so an interned program
// (intern.go) plans once and every configuration carrying it reuses
// the plan.

// ThreadMask is a bitmask over program threads (thread t at bit t-1).
// Masks bound the reduction to MaxPlanThreads threads; wider programs
// are not reduced (Plan.OK is false).
type ThreadMask uint64

// MaxPlanThreads is the widest program a Plan can describe.
const MaxPlanThreads = 64

// ThreadBit is thread t's bit in a ThreadMask.
func ThreadBit(t event.Thread) ThreadMask { return 1 << uint(t-1) }

// Plan is the reduction decision for one program.
type Plan struct {
	// Persist marks the threads to expand: a singleton when an
	// independent thread was found, all enabled threads otherwise.
	Persist ThreadMask
	// Visible marks threads whose step arrives at or leaves a label.
	Visible ThreadMask
	// OK is false when no reduction applies — the zero plan, or a
	// program too wide for masks — and every enabled step is expanded.
	OK bool
}

// silentProgressLimit bounds the divergence walk of SilentProgress:
// longer silent chains are conservatively treated as diverging.
const silentProgressLimit = 32

// loopFree reports whether the command contains no While — the static
// guard against memory-step cycles in models whose non-silent
// transitions can revisit configurations.
func loopFree(c Com) bool {
	switch c := c.(type) {
	case Seq:
		return loopFree(c.C1) && loopFree(c.C2)
	case If:
		return loopFree(c.Then) && loopFree(c.Else)
	case Cas:
		return loopFree(c.Then) && loopFree(c.Else)
	case While:
		return false
	case Label:
		return loopFree(c.C)
	}
	return true
}

// PlanPOR computes the reduction for program p, whose enabled steps
// (in thread order, as AppendProgSteps returns them) are steps: their
// visibility and a persistent set. acyclic is the memory model's
// StepsAcyclic: whether non-silent transitions can never revisit a
// configuration. The plan depends on nothing else — never on the
// memory state, the path or the sleep mask reaching a configuration —
// which keeps the explorer's fixpoint identical across worker counts
// and lets Node.Plan memoise it.
func PlanPOR(p Prog, steps []ProgStep, acyclic bool) Plan {
	if len(p) > MaxPlanThreads {
		return Plan{}
	}
	pl := Plan{OK: true}
	all := ThreadMask(0)
	for _, ps := range steps {
		b := ThreadBit(ps.T)
		all |= b
		if VisibleStep(p.Thread(ps.T), ps.S) {
			pl.Visible |= b
		}
	}

	// Singleton 1: an invisible silent step commutes with everything
	// and is untouchable by other threads. The step must provably make
	// progress (reach a memory step or terminate): all-silent cycles
	// exist under every model, so reducing to a diverging silent
	// thread would postpone every other thread around that cycle
	// forever (the ignoring problem). A progressing chain ends within
	// silentProgressLimit steps, after which the plan changes.
	for _, ps := range steps {
		if ps.S.Kind == StepSilent && pl.Visible&ThreadBit(ps.T) == 0 &&
			SilentProgress(p.Thread(ps.T), silentProgressLimit) {
			pl.Persist = ThreadBit(ps.T)
			return pl
		}
	}

	// Singleton 2: an invisible memory step whose variable no other
	// live thread may ever access conflictingly. Footprints are static
	// over-approximations of the residual programs, so the independence
	// covers every future transition of the other threads, not just the
	// currently enabled ones. Under acyclic models memory steps grow
	// the progress measure and never close a cycle; under the others
	// (SC) the thread's residual must additionally be loop-free, or a
	// private spin loop could cycle solo and starve the rest (the
	// ignoring problem again). Footprints are computed once per live
	// thread, lazily — this stage only runs when no silent singleton
	// exists.
	var fpsArr [8]Footprint
	var fpsOKArr [8]bool
	fps, fpsOK := fpsArr[:], fpsOKArr[:]
	if len(p) > len(fpsArr) {
		fps = make([]Footprint, len(p))
		fpsOK = make([]bool, len(p))
	}
	footprint := func(i int) Footprint {
		if !fpsOK[i] {
			fps[i] = MayAccess(p[i])
			fpsOK[i] = true
		}
		return fps[i]
	}
	for _, ps := range steps {
		if ps.S.Kind == StepSilent || pl.Visible&ThreadBit(ps.T) != 0 {
			continue
		}
		if !acyclic && !loopFree(p.Thread(ps.T)) {
			continue
		}
		wr := ps.S.Kind != StepRead
		conflict := false
		for i := range p {
			if event.Thread(i+1) == ps.T || Terminated(p[i]) {
				continue
			}
			if footprint(i).ConflictsWith(ps.S.Loc, wr) {
				conflict = true
				break
			}
		}
		if !conflict {
			pl.Persist = ThreadBit(ps.T)
			return pl
		}
	}

	pl.Persist = all
	return pl
}
