package lang

// This file is the independence structure of the interpreted semantics
// — the input of the explorer's partial-order reduction — stated over
// program steps alone, so one oracle serves every memory model.
//
// A transition of the interpreted semantics (§3.3) is a program step
// of one thread coupled with one memory-model choice. Two enabled
// steps of *different* threads commute when every concrete transition
// of one composes with every concrete transition of the other in
// either order to the same canonical state, and neither step changes
// the other's set of enabled choices. Both backends satisfy this
// whenever the steps touch no common variable with at least one write
// on it:
//
//   - a silent step touches no memory at all and commutes with
//     everything;
//   - steps on distinct variables commute. Under RA a transition
//     appends one event whose new hb/eco/comb pairs are all incident
//     to that event (the invariant core's incremental engine
//     maintains), so it can only change another thread's
//     observable-write set OW(t)|x, or the covered set CW|x, by
//     inserting or covering a write to x itself. Under SC the two
//     steps read and write disjoint store entries, so the updates
//     compose in either order and neither read value changes;
//   - two plain reads of the same variable commute: a read adds no
//     write and covers nothing, so neither read changes the other's
//     choices, and the resulting states agree in either order;
//   - everything else (same variable, at least one write or update)
//     is dependent: under RA a write to x inserted into mo can enter
//     another thread's encountered set and shrink OW(u)|x, an update
//     covers its observed write, and two writes to x order themselves
//     in mo differently depending on who goes first; under SC the
//     write changes what the other step reads or the final store.

// StepsCommute reports whether two enabled program steps of different
// threads commute in the sense above. Steps of the same thread never
// commute (program order is observable). This is the dependence oracle
// the explorer's sleep sets filter with; it is sound for every backend
// of internal/model.
func StepsCommute(a, b ProgStep) bool {
	if a.T == b.T {
		return false
	}
	if a.S.Kind == StepSilent || b.S.Kind == StepSilent {
		return true
	}
	if a.S.Loc != b.S.Loc {
		return true
	}
	return a.S.Kind == StepRead && b.S.Kind == StepRead
}
