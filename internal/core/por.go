package core

import (
	"sync"

	"repro/internal/event"
	"repro/internal/lang"
)

// This file exposes the independence structure of the interpreted
// semantics — the input of the explorer's partial-order reduction.
//
// A transition of the interpreted semantics is a program step of one
// thread coupled with one memory-model choice (the observed write).
// Two enabled steps of *different* threads commute when every concrete
// transition of one composes with every concrete transition of the
// other in either order to the same canonical state, and neither step
// changes the other's set of enabled choices. In the RA semantics this
// holds whenever the steps touch no common variable with at least one
// write on it, mirroring how the derived orders are built: a
// transition appends one event whose new hb/eco/comb pairs are all
// incident to that event (the invariant the incremental engine of
// incremental.go maintains), so it can only change another thread's
// observable-write set OW(t)|x — served from the eager per-variable
// write indexes — by inserting or covering a write to x itself.
// Concretely:
//
//   - a silent step touches no memory at all and commutes with
//     everything;
//   - steps on distinct variables commute: OW(t)|x and the covered
//     set CW|x are invariant under events on y ≠ x;
//   - two plain reads of the same variable commute: a read adds no
//     write and covers nothing, so neither read changes the other's
//     choices, and the resulting event sets and relations agree in
//     either order;
//   - everything else (same variable, at least one write or update)
//     is dependent: a write to x inserted into mo can enter another
//     thread's encountered set and shrink OW(u)|x, an update covers
//     its observed write, and two writes to x order themselves in mo
//     differently depending on who goes first.

// StepsCommute reports whether two enabled program steps of different
// threads commute in the sense above. Steps of the same thread never
// commute (program order is observable). This is the dependence oracle
// the explorer's sleep sets filter with.
func StepsCommute(a, b lang.ProgStep) bool {
	if a.T == b.T {
		return false
	}
	if a.S.Kind == lang.StepSilent || b.S.Kind == lang.StepSilent {
		return true
	}
	if a.S.Loc != b.S.Loc {
		return true
	}
	return a.S.Kind == lang.StepRead && b.S.Kind == lang.StepRead
}

// Commutes reports whether two generated transitions commute — the
// a-posteriori counterpart of StepsCommute, phrased over the events
// the transitions produced. Used by tests and audits to cross-check
// the step-level oracle against actual successor states.
func Commutes(a, b Succ) bool {
	if a.T == b.T {
		return false
	}
	if a.Silent || b.Silent {
		return true
	}
	if a.E.Var() != b.E.Var() {
		return true
	}
	return !a.E.Act.Kind.IsWrite() && !b.E.Act.Kind.IsWrite()
}

// StepSuccessors expands one enabled program step into its interpreted
// transitions — each memory-model choice of observed write (a single
// τ transition for silent steps). Successors is the union of
// StepSuccessors over ProgSteps(c.P); the explorer's partial-order
// reduction calls this per selected thread so pruned threads never
// pay successor construction.
func (c Config) StepSuccessors(ps lang.ProgStep) []Succ {
	return c.appendStepSuccessors(nil, ps)
}

// tagBufPool recycles the observed-write scratch buffers of the
// successor hot path: one Get/Put per memory step instead of one
// slice allocation per step per state.
var tagBufPool = sync.Pool{New: func() any { b := make([]event.Tag, 0, 16); return &b }}

// AppendStepSuccessors is appendStepSuccessors for the engine-facing
// hot path: it constructs the successor configurations directly into a
// concrete-typed slice, skipping the Succ metadata (observed write,
// event, thread) the engine never reads and drawing the observed-write
// candidates into a pooled buffer. The monomorphised explorer expands
// through this and AppendSuccessors, so the states themselves are the
// only allocations — no interface box per successor.
func (c Config) AppendStepSuccessors(out []Config, ps lang.ProgStep) []Config {
	t, s := ps.T, ps.S
	if s.Kind == lang.StepSilent {
		return append(out, Config{P: c.P.WithThread(t, s.Apply(0)), S: c.S})
	}
	bp := tagBufPool.Get().(*[]event.Tag)
	tags := (*bp)[:0]
	switch s.Kind {
	case lang.StepRead:
		k := event.RdX
		switch {
		case s.Acq:
			k = event.RdAcq
		case s.NA:
			k = event.RdNA
		}
		tags = c.S.AppendObservableFor(tags, t, s.Loc)
		for _, w := range tags {
			v := c.S.Event(w).WrVal()
			ns, _, err := c.S.StepReadKind(t, k, s.Loc, w)
			if err != nil {
				continue // unreachable: w drawn from OW
			}
			out = append(out, Config{P: c.P.WithThread(t, s.Apply(v)), S: ns})
		}

	case lang.StepWrite:
		k := event.WrX
		switch {
		case s.Rel:
			k = event.WrRel
		case s.NA:
			k = event.WrNA
		}
		tags = c.S.AppendInsertionPointsFor(tags, t, s.Loc)
		for _, w := range tags {
			ns, _, err := c.S.StepWriteKind(t, k, s.Loc, s.WVal, w)
			if err != nil {
				continue
			}
			out = append(out, Config{P: c.P.WithThread(t, s.Apply(0)), S: ns})
		}

	case lang.StepUpdate:
		tags = c.S.AppendInsertionPointsFor(tags, t, s.Loc)
		for _, w := range tags {
			ns, _, err := c.S.StepRMW(t, s.Loc, s.WVal, w)
			if err != nil {
				continue
			}
			out = append(out, Config{P: c.P.WithThread(t, s.Apply(c.S.Event(w).WrVal())), S: ns})
		}

	case lang.StepCas:
		// Success face: the CAS reads its expected value from a write it
		// can atomically follow, producing updRA — only insertion points
		// whose write value matches Exp qualify (a matching observable
		// write that cannot be immediately followed in mo is simply not
		// readable by an update; it does not turn into a failure).
		tags = c.S.AppendInsertionPointsFor(tags, t, s.Loc)
		for _, w := range tags {
			if c.S.Event(w).WrVal() != s.Exp {
				continue
			}
			ns, _, err := c.S.StepRMW(t, s.Loc, s.WVal, w)
			if err != nil {
				continue
			}
			out = append(out, Config{P: c.P.WithThread(t, s.Apply(s.Exp)), S: ns})
		}
		// Failure face: reading any non-matching observable write is an
		// acquiring load (strong CAS: a matching value can never fail).
		tags = c.S.AppendObservableFor(tags[:0], t, s.Loc)
		for _, w := range tags {
			v := c.S.Event(w).WrVal()
			if v == s.Exp {
				continue
			}
			ns, _, err := c.S.StepReadKind(t, event.RdAcq, s.Loc, w)
			if err != nil {
				continue
			}
			out = append(out, Config{P: c.P.WithThread(t, s.Apply(v)), S: ns})
		}
	}
	*bp = tags
	tagBufPool.Put(bp)
	return out
}

func (c Config) appendStepSuccessors(out []Succ, ps lang.ProgStep) []Succ {
	t, s := ps.T, ps.S
	switch s.Kind {
	case lang.StepSilent:
		out = append(out, Succ{
			C:      Config{P: c.P.WithThread(t, s.Apply(0)), S: c.S},
			Silent: true,
			T:      t,
		})

	case lang.StepRead:
		k := event.RdX
		switch {
		case s.Acq:
			k = event.RdAcq
		case s.NA:
			k = event.RdNA
		}
		for _, w := range c.S.ObservableFor(t, s.Loc) {
			v := c.S.Event(w).WrVal()
			ns, e, err := c.S.StepReadKind(t, k, s.Loc, w)
			if err != nil {
				continue // unreachable: w drawn from OW
			}
			out = append(out, Succ{
				C: Config{P: c.P.WithThread(t, s.Apply(v)), S: ns},
				W: w, E: e, T: t,
			})
		}

	case lang.StepWrite:
		k := event.WrX
		switch {
		case s.Rel:
			k = event.WrRel
		case s.NA:
			k = event.WrNA
		}
		for _, w := range c.S.InsertionPointsFor(t, s.Loc) {
			ns, e, err := c.S.StepWriteKind(t, k, s.Loc, s.WVal, w)
			if err != nil {
				continue
			}
			out = append(out, Succ{
				C: Config{P: c.P.WithThread(t, s.Apply(0)), S: ns},
				W: w, E: e, T: t,
			})
		}

	case lang.StepUpdate:
		for _, w := range c.S.InsertionPointsFor(t, s.Loc) {
			ns, e, err := c.S.StepRMW(t, s.Loc, s.WVal, w)
			if err != nil {
				continue
			}
			out = append(out, Succ{
				C: Config{P: c.P.WithThread(t, s.Apply(c.S.Event(w).WrVal())), S: ns},
				W: w, E: e, T: t,
			})
		}

	case lang.StepCas:
		// Mirrors appendConfigSuccessors: success = updRA from a
		// matching insertion point, failure = acquiring read of a
		// non-matching observable write.
		for _, w := range c.S.InsertionPointsFor(t, s.Loc) {
			if c.S.Event(w).WrVal() != s.Exp {
				continue
			}
			ns, e, err := c.S.StepRMW(t, s.Loc, s.WVal, w)
			if err != nil {
				continue
			}
			out = append(out, Succ{
				C: Config{P: c.P.WithThread(t, s.Apply(s.Exp)), S: ns},
				W: w, E: e, T: t,
			})
		}
		for _, w := range c.S.ObservableFor(t, s.Loc) {
			v := c.S.Event(w).WrVal()
			if v == s.Exp {
				continue
			}
			ns, e, err := c.S.StepReadKind(t, event.RdAcq, s.Loc, w)
			if err != nil {
				continue
			}
			out = append(out, Succ{
				C: Config{P: c.P.WithThread(t, s.Apply(v)), S: ns},
				W: w, E: e, T: t,
			})
		}
	}
	return out
}
