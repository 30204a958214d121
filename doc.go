// Package repro is a from-scratch Go reproduction of "Verifying C11
// Programs Operationally" (Doherty, Dongol, Wehrheim, Derrick —
// PPoPP 2019): an operational semantics for the release-acquire +
// relaxed (RAR) fragment of the C11 memory model, proved sound and
// complete against the axiomatic model, plus an assertion calculus for
// invariant-based verification, applied to Peterson's mutual-exclusion
// algorithm.
//
// The library lives under internal/:
//
//	internal/bits        dense bit vectors
//	internal/relation    binary-relation algebra (closure, acyclicity, …)
//	internal/fingerprint 128-bit canonical execution fingerprints
//	internal/event       threads, variables, actions, events
//	internal/lang        the command language and uninterpreted semantics (§2)
//	internal/core        C11 states, observability, the RA event and
//	                     interpreted semantics (§3) — the paper's contribution
//	internal/axiomatic   Definition 4.2 axioms, pre-executions,
//	                     justification, Theorem 4.8 replay, Appendix C
//	internal/enumerate   bounded candidate-execution enumeration
//	                     (the Memalloy substitution of Appendix E)
//	internal/catdsl      cat-language evaluator with the paper's models
//	                     (Appendix E, executable)
//	internal/model       the pluggable memory-model interface the
//	                     explorer is generic over (+ model/backends,
//	                     the named registry behind the -model flags)
//	internal/explore     bounded explicit-state model checker: one
//	                     sharded engine over any model backend
//	internal/proof       determinate-value / variable-ordering assertions,
//	                     the Figure 4 rules, the Peterson invariants (§5)
//	internal/litmus      litmus catalog, Peterson variants, differential
//	                     fuzzing of the two semantics
//	internal/races       non-atomic accesses and data-race detection
//	                     (the §2.1 extension)
//	internal/sc          sequential consistency as a second full model
//	                     backend behind the same combination rules
//	                     (§3.3); the baseline of differential model
//	                     checking (c11 litmus -model all: RAR-only
//	                     outcomes are exactly the weak behaviours)
//	internal/parser      textual litmus front end
//	internal/gen         random litmus-program generator, delta-
//	                     debugging shrinker and differential-fuzzing
//	                     oracle battery (c11 fuzz; docs/fuzzing.md)
//	internal/vis         dot / ASCII execution diagrams
//
// The c11 command (cmd/c11: subcommands verify, explore, litmus,
// equiv and fuzz) and the programs under examples/ exercise
// the public surface; bench_test.go at this root regenerates every experiment,
// and PERF.md records the exploration hot-path numbers and how to
// reproduce them. ARCHITECTURE.md is the top-to-bottom tour: the
// layer map, the data flow between packages, and where the
// fingerprinting, incremental-closure and partial-order-reduction
// machinery sits. The .lit litmus file grammar is documented in
// docs/litmus-format.md.
//
// # Incremental derived-order maintenance
//
// A transition σ --(w,e)--> σ' appends exactly one event and at most
// three edge groups (sb into e, one rf edge, one mo splice), so
// successor states never recompute their derived orders from scratch.
// Instead (internal/core/incremental.go):
//
//   - sb, rf and mo are flat word slabs (relation.Rel): a successor
//     copies its parent's with one memmove each, out of one slab per
//     state, and its new event writes only its own row and column;
//   - the closures hb = (sb ∪ sw)⁺, eco = (fr ∪ mo ∪ rf)⁺ and the
//     observability kernel eco?;hb? are inherited from the parent's
//     memoised values and extended by the new event's row and column
//     alone — every new edge is incident to the new event, so no pair
//     between old events changes;
//   - the per-thread event sets, the write set, the per-variable
//     write lists, the mo-maximal write per variable (σ.last) and the
//     canonical fingerprint (a commutative multiset hash under the
//     stable (thread, position) renaming) are all maintained eagerly
//     on each step.
//
// The from-scratch formulas survive as an audit: the unreduced search
// of explore.Audit (flag -audit on c11 explore and c11 verify)
// recomputes every derived order at every explored configuration and
// counts disagreements — expected zero, asserted across the testdata
// litmus suite by por_equivalence_test.go.
//
// # Partial-order reduction
//
// Fingerprint deduplication merges commuting interleavings only after
// they have been generated; the explorer's independence-based
// reduction (explore.Options.POR, flag -por, default on for the
// command line) avoids generating them. Two enabled steps of different
// threads commute when either is silent or they touch no common
// variable with a write (lang.StepsCommute — non-commutation is
// exactly interference through the eco/mo structure, since every new
// derived-order edge is incident to the new event). On top of that
// oracle sit a persistent-set heuristic (expand one thread alone when
// its next step cannot conflict with any other thread's static
// may-access footprint, lang.MayAccess) and sleep sets (masks riding
// the work items that prune sibling orders already covered
// elsewhere), with steps arriving at or leaving a lang.Label treated
// as visible and never reduced over. The reduction preserves every
// terminated configuration and all label-observable behaviour while
// skipping commuting intermediate states. Its contract is auditable:
// explore.Audit (flag -audit) runs the full search and the reduced one,
// serially and in parallel, and diffs property verdicts,
// terminated-state fingerprint sets and reduced ⊆ full reachability —
// expected zero divergences, asserted across the testdata litmus suite
// by por_equivalence_test.go and in CI.
package repro
