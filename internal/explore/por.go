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
// thread's residual program to be loop-free — a static, conservative
// guard.
//
// The persistent set and the visibility of each step are a function of
// the residual program and StepsAcyclic alone, so they are computed by
// lang.PlanPOR and memoised on the interned program (lang.Node.Plan):
// each distinct program is planned once per search, not once per
// configuration. Sleep masks depend on the path and stay here.
//
// Label-visibility guard: safety properties observe program counters
// through lang.AtLabel (e.g. mutual exclusion at the "cs" label), so
// steps that arrive at or leave a labelled command are treated as
// visible — never chosen as a reducing singleton, never slept, and
// dependent with everything — keeping the label-interleavings of the
// full search. Properties that inspect other state components can
// still distinguish reduced from full searches (absence of a violation
// is relative to the reduction); Audit checks exactly this.
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
)

// threadMask is a bitmask over program threads (thread t at bit t-1).
// Masks bound the reduction to lang.MaxPlanThreads threads; wider
// programs fall back to full exploration (Plan.OK = false).
type threadMask = lang.ThreadMask

func maskBit(t event.Thread) threadMask { return lang.ThreadBit(t) }

// childSleep computes the sleep mask of successors generated by step j
// of steps, the enabled steps plan pl was made for: the threads
// already covered at the parent — the parent's sleep plus the
// persistent threads ordered before j — whose steps commute with step
// j under the model's oracle. Visible steps are never slept and wake
// everything when taken. Monotone in the parent mask, which makes the
// dedup-by-intersection fixpoint well-defined.
func childSleep(pl lang.Plan, steps []lang.ProgStep, sleep threadMask, j int) threadMask {
	uj := steps[j]
	if pl.Visible&maskBit(uj.T) != 0 {
		return 0
	}
	cand := sleep
	for k := 0; k < j; k++ {
		if b := maskBit(steps[k].T); pl.Persist&b != 0 {
			cand |= b
		}
	}
	out := threadMask(0)
	for _, ps := range steps {
		b := maskBit(ps.T)
		if cand&b == 0 || pl.Visible&b != 0 {
			continue
		}
		if lang.StepsCommute(ps, uj) {
			out |= b
		}
	}
	return out
}
