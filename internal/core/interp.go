package core

import (
	"sync"

	"repro/internal/event"
	"repro/internal/fingerprint"
	"repro/internal/lang"
	"repro/internal/model"
)

// This file implements the interpreted semantics of §3.3: the
// uninterpreted program semantics (internal/lang) coupled with the RA
// event semantics. A configuration is a pair (P, σ); the memory model
// constrains which read values are possible.

// Config is a configuration (P, σ). The program is carried as its
// node in an intern table (lang.Table), which memoises everything that
// depends on the program alone.
type Config struct {
	node *lang.Node
	S    *State
}

// NewConfig pairs a program with an initial state for the given
// variable initialisation. It interns p into a fresh table, which the
// configuration's successors share.
func NewConfig(p lang.Prog, vars map[event.Var]event.Val) Config {
	return Config{node: lang.NewTable().Intern(p), S: Init(vars)}
}

// Node returns the configuration's interned program.
func (c Config) Node() *lang.Node { return c.node }

// Successors returns every interpreted transition enabled in c,
// combining each uninterpreted program step with each memory-model
// choice of observed write: the union of AppendStepSuccessors over
// the enabled steps.
func (c Config) Successors() []Config {
	var out []Config
	for _, ps := range c.node.Steps() {
		out = c.AppendStepSuccessors(out, ps)
	}
	return out
}

// tagBufPool reuses the observed-write scratch buffers of the
// successor hot path: one Get/Put per memory step instead of one
// slice allocation per step per state.
var tagBufPool = sync.Pool{New: func() any { b := make([]event.Tag, 0, 16); return &b }}

// AppendStepChoices enumerates the interpreted transitions of one
// enabled program step — one choice per memory-model choice of
// observed write (a single τ choice for a silent step) — appending
// them to out without building any successor. Each choice carries the
// successor's predicted fingerprint, its interned program and the
// observed write, so the explorer can deduplicate before building and
// Build re-derives nothing. The observed-write candidates are drawn
// into a pooled buffer.
func (c Config) AppendStepChoices(out []model.Choice, ps lang.ProgStep) []model.Choice {
	t, s := ps.T, ps.S
	if s.Kind == lang.StepSilent {
		res := c.node.Next(t, 0)
		return append(out, model.Choice{
			FP:       res.Fingerprint(c.S.Fingerprint()),
			Res:      res,
			Progress: c.S.NumEvents(),
		})
	}
	bp := tagBufPool.Get().(*[]event.Tag)
	tags := (*bp)[:0]
	switch s.Kind {
	case lang.StepRead:
		k := readKind(s)
		tags = c.S.AppendObservableFor(tags, t, s.Loc)
		for _, w := range tags {
			v := c.S.events[w].wval
			out = append(out, c.choice(t, event.Action{Kind: k, Loc: s.Loc, RVal: v}, w, c.node.Next(t, v)))
		}

	case lang.StepWrite:
		a := event.Action{Kind: writeKind(s), Loc: s.Loc, WVal: s.WVal}
		res := c.node.Next(t, 0)
		tags = c.S.AppendInsertionPointsFor(tags, t, s.Loc)
		for _, w := range tags {
			out = append(out, c.choice(t, a, w, res))
		}

	case lang.StepUpdate:
		// An update's residual does not depend on the value read
		// (Proposition 2.2), so it is looked up once for every choice.
		res := c.node.Next(t, 0)
		tags = c.S.AppendInsertionPointsFor(tags, t, s.Loc)
		for _, w := range tags {
			out = append(out, c.choice(t, event.Upd(s.Loc, c.S.events[w].wval, s.WVal), w, res))
		}

	case lang.StepCas:
		// Success face: the CAS reads its expected value from a write it
		// can atomically follow, producing updRA — only insertion points
		// whose write value matches Exp qualify (a matching observable
		// write that cannot be immediately followed in mo is simply not
		// readable by an update; it does not turn into a failure).
		tags = c.S.AppendInsertionPointsFor(tags, t, s.Loc)
		var res *lang.Node
		for _, w := range tags {
			if c.S.events[w].wval != s.Exp {
				continue
			}
			if res == nil {
				res = c.node.Next(t, s.Exp)
			}
			out = append(out, c.choice(t, event.Upd(s.Loc, s.Exp, s.WVal), w, res))
		}
		// Failure face: reading any non-matching observable write is an
		// acquiring load (strong CAS: a matching value can never fail).
		tags = c.S.AppendObservableFor(tags[:0], t, s.Loc)
		for _, w := range tags {
			if v := c.S.events[w].wval; v != s.Exp {
				out = append(out, c.choice(t, event.RdA(s.Loc, v), w, c.node.Next(t, v)))
			}
		}
	}
	*bp = tags
	tagBufPool.Put(bp)
	return out
}

// choice describes the memory successor in which thread t appends
// action a observing w and the program continues as res.
func (c Config) choice(t event.Thread, a event.Action, w event.Tag, res *lang.Node) model.Choice {
	return model.Choice{
		FP:       res.Fingerprint(c.S.succFingerprint(t, a, w)),
		Res:      res,
		W:        w,
		Progress: c.S.NumEvents() + 1,
	}
}

// Build constructs the successor one choice of step ps describes. The
// choice was enumerated from c's own observability sets, so the step
// rules' premises hold and are not re-checked, and its program node is
// reused: nothing of the program is copied.
func (c Config) Build(ps lang.ProgStep, ch model.Choice) Config {
	t, s, n := ps.T, ps.S, ch.Res
	switch s.Kind {
	case lang.StepRead:
		return Config{node: n, S: c.S.read(t, readKind(s), ch.W)}
	case lang.StepWrite:
		return Config{node: n, S: c.S.write(t, writeKind(s), s.WVal, ch.W)}
	case lang.StepUpdate:
		return Config{node: n, S: c.S.rmw(t, s.WVal, ch.W)}
	case lang.StepCas:
		if c.S.events[ch.W].wval == s.Exp {
			return Config{node: n, S: c.S.rmw(t, s.WVal, ch.W)}
		}
		return Config{node: n, S: c.S.read(t, event.RdAcq, ch.W)}
	}
	return Config{node: n, S: c.S} // silent: the state is shared
}

// AppendStepSuccessors builds every choice of one enabled program step
// (AppendStepChoices, then Build on each, in enumeration order),
// appending the successors to out. Successors is its union over the
// enabled steps.
//
// A caller that needs the transition's metadata derives it from the
// successor: a silent step shares the parent's state (succ.S == c.S);
// otherwise the new event is succ.S.Event(event.Tag(succ.S.NumEvents()-1)).
func (c Config) AppendStepSuccessors(out []Config, ps lang.ProgStep) []Config {
	var buf [8]model.Choice
	for _, ch := range c.AppendStepChoices(buf[:0], ps) {
		out = append(out, c.Build(ps, ch))
	}
	return out
}

// readKind and writeKind map a step's annotations to its event kind.
func readKind(s lang.Step) event.Kind {
	switch {
	case s.Acq:
		return event.RdAcq
	case s.NA:
		return event.RdNA
	}
	return event.RdX
}

func writeKind(s lang.Step) event.Kind {
	switch {
	case s.Rel:
		return event.WrRel
	case s.NA:
		return event.WrNA
	}
	return event.WrX
}

// Key returns a canonical string identity for the configuration, used
// for exact state-space deduplication. It identifies configurations up
// to the interleaving that produced them (see
// State.CanonicalSignature): same per-thread residual programs +
// isomorphic C11 state ⇒ same futures, so exploring one representative
// suffices. The explorer's hot path uses Fingerprint instead; Key is
// the exact slow path kept for collision cross-checking.
func (c Config) Key() string {
	return c.node.Prog().String() + "\x00" + c.S.CanonicalSignature()
}

// Fingerprint returns a 128-bit canonical identity for the
// configuration — the hashed equivalent of Key, computed without fmt
// or intermediate signature strings. Two configurations with equal
// keys always have equal fingerprints; distinct keys collide only with
// 128-bit hash probability, which the explorer's collision-check mode
// can audit against Key.
func (c Config) Fingerprint() fingerprint.FP {
	return c.node.Fingerprint(c.S.Fingerprint())
}

// Terminated reports whether every thread of the configuration has
// terminated.
func (c Config) Terminated() bool { return c.node.Terminated() }
