package explore

// Independence-based partial-order reduction, generic over the memory
// model. The explorer's state count blows up factorially in thread
// interleavings even when most of them are equivalent: two transitions
// on different threads that commute under the oracle
// (lang.StepsCommute) reach the same canonical configuration
// in either order, so the n! orders of n pairwise-independent steps
// all converge through 2^n intermediate states. The reduction avoids
// generating the redundant interleavings in the first place, with the
// classic pair of techniques:
//
//   - a persistent-set heuristic chooses, per configuration, a subset
//     of the enabled threads whose exploration provably suffices. The
//     heuristic picks a singleton when some thread's next step can
//     never conflict with anything the other live threads may still
//     do: a silent step (touches no memory), or a memory step on a
//     variable outside every other thread's static may-access
//     footprint (lang.MayAccess). Nothing another thread does can
//     disable, alter or conflict with such a step — in these
//     semantics a live thread is never disabled by another thread,
//     and the step's choices are invariant under events on other
//     variables — so exploring it first and the rest after it covers
//     every behaviour. When no thread qualifies, the full enabled set
//     is used.
//   - sleep sets prune transitions whose interleavings are covered
//     elsewhere: when threads u1 < u2 are explored at a configuration
//     and their steps commute, the u2-successor need not explore u1
//     again — the u1·u2 order already covers it. Sleep masks ride the
//     work items, are filtered through the commutation oracle on every
//     edge, and interact with deduplication by intersection:
//     re-reaching a known configuration with a smaller sleep set
//     weakens the stored mask and re-queues the configuration, exactly
//     like depth relaxation (the stored mask only ever shrinks, so the
//     fixpoint — and with it the explored set — is engine-order
//     independent).
//
// The ignoring problem: reducing to a singleton thread that can cycle
// solo through the configuration graph would postpone every other
// thread around that cycle forever. Which steps can close cycles is a
// model property (model.Config.StepsAcyclic). Under RAR every memory
// step appends an event, so only all-silent cycles exist and silent
// singletons require a bounded progress walk (lang.SilentProgress).
// Under SC a spin loop re-reads an unchanged store and revisits
// configurations, so memory-step singletons additionally require the
// thread's residual program to be loop-free (loopFree below) — a
// static, conservative guard.
//
// Label-visibility guard: safety properties observe program counters
// through lang.AtLabel (e.g. mutual exclusion at the "cs" label), so
// steps that arrive at or leave a labelled command are treated as
// visible — never chosen as a reducing singleton, never slept, and
// dependent with everything — keeping the label-interleavings of the
// full search. Properties that inspect other state components can
// still distinguish reduced from full searches (absence of a violation
// is relative to the reduction); CheckPOR audits exactly this.
//
// The reduction preserves: every terminated configuration, the
// violation verdict for label-based and terminated-state properties,
// and soundness (every configuration the reduced search explores is
// reachable in the full search — its edges are a subset). It does not
// preserve the full set of intermediate configurations; that is the
// point.

import (
	"repro/internal/event"
	"repro/internal/lang"
	"repro/internal/model"
)

// threadMask is a bitmask over program threads (thread t at bit t-1).
// Masks bound the reduction to 64 threads; wider programs fall back to
// full exploration (plan.ok = false).
type threadMask uint64

const maxPORThreads = 64

func maskBit(t event.Thread) threadMask { return 1 << uint(t-1) }

// porPlan is the reduction decision at one configuration.
type porPlan struct {
	// steps are the enabled program steps, in thread order (the fixed
	// exploration order every worker shares, so successor sleep masks
	// are deterministic).
	steps []lang.ProgStep
	// persist marks the threads to expand: a singleton when the
	// heuristic found an independent thread, all enabled otherwise.
	persist threadMask
	// visible marks threads whose step arrives at or leaves a label.
	visible threadMask
	// ok is false when no reduction applies — the zero plan (POR off,
	// or at the progress bound) or a program too wide for masks — and
	// every enabled step is expanded.
	ok bool
}

// silentProgressLimit bounds the divergence walk of SilentProgress:
// longer silent chains are conservatively treated as diverging.
const silentProgressLimit = 32

// loopFree reports whether the command contains no While — the static
// guard against memory-step cycles in models whose non-silent
// transitions can revisit configurations.
func loopFree(c lang.Com) bool {
	switch c := c.(type) {
	case lang.Seq:
		return loopFree(c.C1) && loopFree(c.C2)
	case lang.If:
		return loopFree(c.Then) && loopFree(c.Else)
	case lang.Cas:
		return loopFree(c.Then) && loopFree(c.Else)
	case lang.While:
		return false
	case lang.Label:
		return loopFree(c.C)
	}
	return true
}

// planPOR computes the reduction at c, whose enabled steps (in thread
// order) are steps: their visibility and a persistent set. The plan is
// a function of the configuration alone (never of the path or sleep
// mask reaching it), which keeps the engine's fixpoint identical
// across worker counts. Generic so concrete instantiations call the
// model methods without boxing the configuration.
func planPOR[C model.Config](c C, steps []lang.ProgStep) porPlan {
	p := c.Program()
	pl := porPlan{steps: steps, ok: true}
	if len(p) > maxPORThreads {
		pl.ok = false
		return pl
	}
	all := threadMask(0)
	for _, ps := range pl.steps {
		b := maskBit(ps.T)
		all |= b
		if lang.VisibleStep(p.Thread(ps.T), ps.S) {
			pl.visible |= b
		}
	}

	// Singleton 1: an invisible silent step commutes with everything
	// and is untouchable by other threads. The step must provably make
	// progress (reach a memory step or terminate): all-silent cycles
	// exist under every model, so reducing to a diverging silent
	// thread would postpone every other thread around that cycle
	// forever (the ignoring problem). A progressing chain ends within
	// silentProgressLimit steps, after which the plan changes.
	for _, ps := range pl.steps {
		if ps.S.Kind == lang.StepSilent && pl.visible&maskBit(ps.T) == 0 &&
			lang.SilentProgress(p.Thread(ps.T), silentProgressLimit) {
			pl.persist = maskBit(ps.T)
			return pl
		}
	}

	// Singleton 2: an invisible memory step whose variable no other
	// live thread may ever access conflictingly. Footprints are static
	// over-approximations of the residual programs, so the independence
	// covers every future transition of the other threads, not just the
	// currently enabled ones. Under models with StepsAcyclic, memory
	// steps grow the progress measure and never close a cycle; under
	// the others (SC) the thread's residual must additionally be
	// loop-free, or a private spin loop could cycle solo and starve
	// the rest (the ignoring problem again). Footprints are computed
	// once per live thread, lazily — this stage only runs when no
	// silent singleton exists.
	acyclic := c.StepsAcyclic()
	// Footprint caches live on the stack for the typical thread counts;
	// the closure below does not escape, so neither do the arrays.
	var fpsArr [8]lang.Footprint
	var fpsOKArr [8]bool
	fps, fpsOK := fpsArr[:], fpsOKArr[:]
	if len(p) > len(fpsArr) {
		fps = make([]lang.Footprint, len(p))
		fpsOK = make([]bool, len(p))
	}
	footprint := func(i int) lang.Footprint {
		if !fpsOK[i] {
			fps[i] = lang.MayAccess(p[i])
			fpsOK[i] = true
		}
		return fps[i]
	}
	for _, ps := range pl.steps {
		if ps.S.Kind == lang.StepSilent || pl.visible&maskBit(ps.T) != 0 {
			continue
		}
		if !acyclic && !loopFree(p.Thread(ps.T)) {
			continue
		}
		wr := ps.S.Kind != lang.StepRead
		conflict := false
		for i := range p {
			u := event.Thread(i + 1)
			if u == ps.T || lang.Terminated(p[i]) {
				continue
			}
			if footprint(i).ConflictsWith(ps.S.Loc, wr) {
				conflict = true
				break
			}
		}
		if !conflict {
			pl.persist = maskBit(ps.T)
			return pl
		}
	}

	pl.persist = all
	return pl
}

// childSleep computes the sleep mask of successors generated by step j
// of the plan: the threads already covered at the parent — the
// parent's sleep plus the persistent threads ordered before j — whose
// steps commute with step j under the model's oracle. Visible steps
// are never slept and wake everything when taken. Monotone in the
// parent mask, which makes the dedup-by-intersection fixpoint
// well-defined.
func childSleep(pl porPlan, sleep threadMask, j int) threadMask {
	uj := pl.steps[j]
	if pl.visible&maskBit(uj.T) != 0 {
		return 0
	}
	cand := sleep
	for k := 0; k < j; k++ {
		if b := maskBit(pl.steps[k].T); pl.persist&b != 0 {
			cand |= b
		}
	}
	out := threadMask(0)
	for _, ps := range pl.steps {
		b := maskBit(ps.T)
		if cand&b == 0 || pl.visible&b != 0 {
			continue
		}
		if lang.StepsCommute(ps, uj) {
			out |= b
		}
	}
	return out
}
