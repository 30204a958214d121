package lang

import (
	"fmt"

	"repro/internal/event"
)

// StepKind classifies a transition of the uninterpreted semantics.
type StepKind uint8

// Step kinds.
const (
	// StepSilent is a τ step.
	StepSilent StepKind = iota
	// StepRead generates rd(x, n) or rdA(x, n); the value n is chosen
	// by the memory model (any value in the uninterpreted semantics).
	StepRead
	// StepWrite generates wr(x, n) or wrR(x, n).
	StepWrite
	// StepUpdate generates updRA(x, m, n); the read value m is chosen
	// by the memory model.
	StepUpdate
	// StepCas is a strong compare-and-swap: reading the expected value
	// Exp generates updRA(x, Exp, n) (success), reading any other
	// value m generates the acquiring read rdA(x, m) (failure). The
	// successor command depends on which face was taken; call Apply.
	StepCas
)

func (k StepKind) String() string {
	switch k {
	case StepSilent:
		return "τ"
	case StepRead:
		return "read"
	case StepWrite:
		return "write"
	case StepUpdate:
		return "update"
	case StepCas:
		return "cas"
	default:
		return fmt.Sprintf("StepKind(%d)", uint8(k))
	}
}

// Step is one transition C --a--> C' of Figure 2, with the read value
// (if any) left open. For StepSilent and StepWrite, Next is the unique
// successor. For StepRead, StepUpdate and StepCas the successor may
// depend on the value read; call Apply.
type Step struct {
	Kind StepKind
	Loc  event.Var // StepRead/StepWrite/StepUpdate/StepCas
	Acq  bool      // StepRead: acquiring load
	Rel  bool      // StepWrite: releasing store
	NA   bool      // StepRead/StepWrite: non-atomic access
	WVal event.Val // StepWrite/StepUpdate/StepCas: value written on success
	Exp  event.Val // StepCas: expected (compared) value

	next     Com                 // successor for Silent/Write/Update
	nextRead func(event.Val) Com // successor for Read/Cas
}

// Apply returns the successor command given the value read. The value
// is ignored for silent, write and update steps (an update's successor
// does not depend on the value read — Proposition 2.2); a CAS branches
// on whether the value read equals Exp.
func (s Step) Apply(v event.Val) Com {
	if s.Kind == StepRead || s.Kind == StepCas {
		return s.nextRead(v)
	}
	return s.next
}

// Action materialises the action generated by this step for the given
// read value (ignored for writes). Silent steps have no action.
func (s Step) Action(v event.Val) (event.Action, bool) {
	switch s.Kind {
	case StepSilent:
		return event.Action{}, false
	case StepRead:
		switch {
		case s.Acq:
			return event.RdA(s.Loc, v), true
		case s.NA:
			return event.RdN(s.Loc, v), true
		default:
			return event.Rd(s.Loc, v), true
		}
	case StepWrite:
		switch {
		case s.Rel:
			return event.WrR(s.Loc, s.WVal), true
		case s.NA:
			return event.WrN(s.Loc, s.WVal), true
		default:
			return event.Wr(s.Loc, s.WVal), true
		}
	case StepUpdate:
		return event.Upd(s.Loc, v, s.WVal), true
	case StepCas:
		if v == s.Exp {
			return event.Upd(s.Loc, v, s.WVal), true
		}
		return event.RdA(s.Loc, v), true
	}
	panic("lang: unknown step kind")
}

// Steps returns the set of uninterpreted transitions available from c,
// implementing Figure 2. The language is deterministic per thread up
// to read values, so at most one step is returned for every command;
// a slice is used so callers can treat "terminated" (skip) uniformly.
// Hot paths that only need the unique step should call StepOf, which
// does not allocate the slice.
func Steps(c Com) []Step {
	if s, ok := StepOf(c); ok {
		return []Step{s}
	}
	return nil
}

// StepOf returns the unique transition available from c, or ok=false
// when c has terminated. This is the allocation-light core of Steps:
// the explorer interrogates every thread of every configuration, and
// the per-Seq-level slices Steps used to build dominated the program
// side of the successor profile.
func StepOf(c Com) (Step, bool) {
	switch x := c.(type) {
	case Skip:
		return Step{}, false

	case Assign:
		if x.Idx != nil {
			// Resolve the index first: each read substitutes into the
			// index, normalising to the concrete cell once it closes.
			if Closed(x.Idx) {
				x = Assign{X: Cell(x.X, Eval(x.Idx)), E: x.E, Rel: x.Rel, NA: x.NA}
			} else {
				ld, _ := EvalTargetLoad(x.Idx)
				asn := x
				return Step{
					Kind: StepRead,
					Loc:  ld.X,
					Acq:  ld.Acq,
					NA:   ld.NA,
					nextRead: func(n event.Val) Com {
						ni := Subst(asn.Idx, ld.X, n)
						if Closed(ni) {
							return Assign{X: Cell(asn.X, Eval(ni)), E: asn.E, Rel: asn.Rel, NA: asn.NA}
						}
						return Assign{X: asn.X, Idx: ni, E: asn.E, Rel: asn.Rel, NA: asn.NA}
					},
				}, true
			}
		}
		if Closed(x.E) {
			return Step{
				Kind: StepWrite,
				Loc:  x.X,
				Rel:  x.Rel,
				NA:   x.NA,
				WVal: Eval(x.E),
				next: Skip{},
			}, true
		}
		ld, _ := EvalTargetLoad(x.E)
		asn := x
		return Step{
			Kind: StepRead,
			Loc:  ld.X,
			Acq:  ld.Acq,
			NA:   ld.NA,
			nextRead: func(n event.Val) Com {
				return Assign{X: asn.X, E: Subst(asn.E, ld.X, n), Rel: asn.Rel, NA: asn.NA}
			},
		}, true

	case Swap:
		return Step{
			Kind: StepUpdate,
			Loc:  x.X,
			WVal: x.N,
			next: Skip{},
		}, true

	case Cas:
		// Resolve the index, then the expected and new values — each
		// through ordinary read steps, substituting every read into
		// both Old and New (they form one evaluation unit, like an
		// Assign's right-hand side). Only then is the comparison one
		// atomic StepCas transition.
		if x.Idx != nil {
			if Closed(x.Idx) {
				x = Cas{X: Cell(x.X, Eval(x.Idx)), Old: x.Old, New: x.New, Then: x.Then, Else: x.Else}
			} else {
				ld, _ := EvalTargetLoad(x.Idx)
				cs := x
				return Step{
					Kind: StepRead,
					Loc:  ld.X,
					Acq:  ld.Acq,
					NA:   ld.NA,
					nextRead: func(n event.Val) Com {
						ni := Subst(cs.Idx, ld.X, n)
						if Closed(ni) {
							return Cas{X: Cell(cs.X, Eval(ni)), Old: cs.Old, New: cs.New, Then: cs.Then, Else: cs.Else}
						}
						return Cas{X: cs.X, Idx: ni, Old: cs.Old, New: cs.New, Then: cs.Then, Else: cs.Else}
					},
				}, true
			}
		}
		if !Closed(x.Old) || !Closed(x.New) {
			target := x.Old
			if Closed(x.Old) {
				target = x.New
			}
			ld, _ := EvalTargetLoad(target)
			cs := x
			return Step{
				Kind: StepRead,
				Loc:  ld.X,
				Acq:  ld.Acq,
				NA:   ld.NA,
				nextRead: func(n event.Val) Com {
					return Cas{
						X:    cs.X,
						Old:  Subst(cs.Old, ld.X, n),
						New:  Subst(cs.New, ld.X, n),
						Then: cs.Then, Else: cs.Else,
					}
				},
			}, true
		}
		exp, th, el := Eval(x.Old), x.Then, x.Else
		return Step{
			Kind: StepCas,
			Loc:  x.X,
			Exp:  exp,
			WVal: Eval(x.New),
			nextRead: func(v event.Val) Com {
				if v == exp {
					return th
				}
				return el
			},
		}, true

	case Seq:
		if Terminated(x.C1) {
			return Step{Kind: StepSilent, next: x.C2}, true
		}
		inner, ok := StepOf(x.C1)
		if !ok {
			return Step{}, false
		}
		return liftSeq(inner, x.C2), true

	case If:
		if !Closed(x.B) {
			ld, _ := EvalTargetLoad(x.B)
			b, th, el := x.B, x.Then, x.Else
			return Step{
				Kind: StepRead,
				Loc:  ld.X,
				Acq:  ld.Acq,
				NA:   ld.NA,
				nextRead: func(n event.Val) Com {
					return If{B: Subst(b, ld.X, n), Then: th, Else: el}
				},
			}, true
		}
		if Eval(x.B) != 0 {
			return Step{Kind: StepSilent, next: x.Then}, true
		}
		return Step{Kind: StepSilent, next: x.Else}, true

	case While:
		if !Closed(x.Cur) {
			ld, _ := EvalTargetLoad(x.Cur)
			w := x
			return Step{
				Kind: StepRead,
				Loc:  ld.X,
				Acq:  ld.Acq,
				NA:   ld.NA,
				nextRead: func(n event.Val) Com {
					return While{Guard: w.Guard, Cur: Subst(w.Cur, ld.X, n), Body: w.Body}
				},
			}, true
		}
		if Eval(x.Cur) != 0 {
			reset := While{Guard: x.Guard, Cur: x.Guard, Body: x.Body}
			return Step{Kind: StepSilent, next: Seq{C1: x.Body, C2: reset}}, true
		}
		return Step{Kind: StepSilent, next: Skip{}}, true

	case Label:
		return Step{Kind: StepSilent, next: x.C}, true

	default:
		panic(fmt.Sprintf("lang: unknown command %T", c))
	}
}

// liftSeq rewrites a step of C1 into a step of C1;C2 (the SEQ rule).
func liftSeq(s Step, c2 Com) Step {
	out := s
	if s.Kind == StepRead || s.Kind == StepCas {
		inner := s.nextRead
		out.nextRead = func(n event.Val) Com {
			return Seq{C1: inner(n), C2: c2}
		}
	} else {
		out.next = Seq{C1: s.next, C2: c2}
	}
	return out
}

// Prog is a program: one command per thread. Thread identifiers are
// 1-based (thread i runs Prog[i-1]); thread 0 is the initialising
// thread and runs no command (§2.2).
type Prog []Com

// Thread returns the command of thread t (1-based).
func (p Prog) Thread(t event.Thread) Com { return p[int(t)-1] }

// WithThread returns a copy of p with thread t's command replaced —
// P[t ↦ C] in the PROG rule.
func (p Prog) WithThread(t event.Thread, c Com) Prog {
	out := make(Prog, len(p))
	copy(out, p)
	out[int(t)-1] = c
	return out
}

// Terminated reports whether every thread has terminated.
func (p Prog) Terminated() bool {
	for _, c := range p {
		if !Terminated(c) {
			return false
		}
	}
	return true
}

// String renders the program canonically for configuration hashing.
func (p Prog) String() string {
	s := ""
	for i, c := range p {
		if i > 0 {
			s += " ||| "
		}
		s += c.String()
	}
	return s
}

// ProgStep is one enabled program transition: thread T may take step S.
type ProgStep struct {
	T event.Thread
	S Step
}

// ProgSteps returns every enabled transition of the program — the PROG
// rule ranging over all threads. Each thread contributes at most one
// step (the language is deterministic up to read values), so the
// result is sized once.
func ProgSteps(p Prog) []ProgStep {
	return AppendProgSteps(make([]ProgStep, 0, len(p)), p)
}

// AppendProgSteps appends the enabled transitions of p to out, in
// thread order, and returns the extended slice.
func AppendProgSteps(out []ProgStep, p Prog) []ProgStep {
	for i, c := range p {
		if s, ok := StepOf(c); ok {
			out = append(out, ProgStep{T: event.Thread(i + 1), S: s})
		}
	}
	return out
}
