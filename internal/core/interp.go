package core

import (
	"sync"

	"repro/internal/event"
	"repro/internal/fingerprint"
	"repro/internal/lang"
)

// This file implements the interpreted semantics of §3.3: the
// uninterpreted program semantics (internal/lang) coupled with the RA
// event semantics. A configuration is a pair (P, σ); the memory model
// constrains which read values are possible.

// Config is a configuration (P, σ).
type Config struct {
	P lang.Prog
	S *State
}

// NewConfig pairs a program with an initial state for the given
// variable initialisation.
func NewConfig(p lang.Prog, vars map[event.Var]event.Val) Config {
	return Config{P: p, S: Init(vars)}
}

// Successors returns every interpreted transition enabled in c,
// combining each uninterpreted program step with each memory-model
// choice of observed write: the union of AppendStepSuccessors over
// the enabled steps.
func (c Config) Successors() []Config {
	var out []Config
	for _, ps := range lang.ProgSteps(c.P) {
		out = c.AppendStepSuccessors(out, ps)
	}
	return out
}

// tagBufPool recycles the observed-write scratch buffers of the
// successor hot path: one Get/Put per memory step instead of one
// slice allocation per step per state.
var tagBufPool = sync.Pool{New: func() any { b := make([]event.Tag, 0, 16); return &b }}

// AppendStepSuccessors expands one enabled program step into its
// interpreted transitions — one successor per memory-model choice of
// observed write (a single τ successor for a silent step) — appending
// them to out. This is the backend's one successor construction: the
// explorer calls it per step (so steps the partial-order reduction
// prunes never pay for successors), and Successors is its union over
// the enabled steps. The observed-write candidates are drawn into a
// pooled buffer, so the states themselves are the only allocations.
//
// A caller that needs the transition's metadata derives it from the
// successor: a silent step shares the parent's state (succ.S == c.S);
// otherwise the new event is succ.S.Event(event.Tag(succ.S.NumEvents()-1)).
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

// Key returns a canonical string identity for the configuration, used
// for exact state-space deduplication. It identifies configurations up
// to the interleaving that produced them (see
// State.CanonicalSignature): same per-thread residual programs +
// isomorphic C11 state ⇒ same futures, so exploring one representative
// suffices. The explorer's hot path uses Fingerprint instead; Key is
// the exact slow path kept for collision cross-checking.
func (c Config) Key() string {
	return c.P.String() + "\x00" + c.S.CanonicalSignature()
}

// progBufPool recycles the scratch buffers for program signatures.
var progBufPool = sync.Pool{New: func() any { b := make([]byte, 0, 256); return &b }}

// Fingerprint returns a 128-bit canonical identity for the
// configuration — the hashed equivalent of Key, computed without fmt
// or intermediate signature strings. Two configurations with equal
// keys always have equal fingerprints; distinct keys collide only with
// 128-bit hash probability, which the explorer's collision-check mode
// can audit against Key.
func (c Config) Fingerprint() fingerprint.FP {
	h := fingerprint.NewHasher()
	sfp := c.S.Fingerprint()
	h.Word(sfp.Hi)
	h.Word(sfp.Lo)
	bp := progBufPool.Get().(*[]byte)
	buf := lang.AppendProgSig((*bp)[:0], c.P)
	h.Bytes(buf)
	*bp = buf
	progBufPool.Put(bp)
	return h.Sum()
}

// Terminated reports whether every thread of the configuration has
// terminated.
func (c Config) Terminated() bool { return c.P.Terminated() }
