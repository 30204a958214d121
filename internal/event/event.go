// Package event defines the vocabulary of the C11 RAR fragment:
// threads, variables, values, the five action kinds of the paper
// (relaxed/acquire reads, relaxed/release writes, release-acquire
// updates), and tagged events Evt = G × Act × T (§3.1).
package event

import (
	"fmt"
	"strconv"
)

// Thread identifies a thread. Thread 0 is reserved for the initialising
// thread that writes the initial value of every variable (§3.1).
type Thread int

// InitThread is the special thread 0 that performs initialising writes.
const InitThread Thread = 0

// Var is a shared-memory variable (a location).
type Var string

// Val is the value domain. The paper leaves Val abstract; integers
// suffice for every program in the paper (booleans are 0/1).
type Val int

// AppendOutcome appends the outcome entry "x=v;" — one observed
// variable's final value — to buf and returns the extended slice. An
// outcome key is the concatenation of its entries in observation
// order; every backend's Summarise and the litmus outcome keys render
// through it, and proof.ParseOutcomeKey is its inverse.
func AppendOutcome(buf []byte, x Var, v Val) []byte {
	buf = append(buf, x...)
	buf = append(buf, '=')
	buf = strconv.AppendInt(buf, int64(v), 10)
	return append(buf, ';')
}

// Boolean values, used by flag variables in Peterson's algorithm.
const (
	False Val = 0
	True  Val = 1
)

// Kind enumerates the action kinds of Act (§2.2):
// rd(x,n), rdA(x,n), wr(x,n), wrR(x,n), updRA(x,m,n).
type Kind uint8

const (
	// RdX is a relaxed read rd(x, n).
	RdX Kind = iota
	// RdAcq is an acquiring read rdA(x, n).
	RdAcq
	// WrX is a relaxed write wr(x, n).
	WrX
	// WrRel is a releasing write wrR(x, n).
	WrRel
	// UpdRA is a release-acquire update updRA(x, m, n): an RMW that
	// atomically reads m and writes n.
	UpdRA
	// RdNA is a non-atomic read rdNA(x, n). Non-atomic accesses are
	// the extension the paper notes is straightforward (§2.1): they
	// behave like relaxed accesses in the memory model but racing on
	// them is undefined behaviour (see internal/races).
	RdNA
	// WrNA is a non-atomic write wrNA(x, n).
	WrNA
)

func (k Kind) String() string {
	switch k {
	case RdX:
		return "rd"
	case RdAcq:
		return "rdA"
	case WrX:
		return "wr"
	case WrRel:
		return "wrR"
	case UpdRA:
		return "updRA"
	case RdNA:
		return "rdNA"
	case WrNA:
		return "wrNA"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// IsRead reports whether the kind reads memory (Rd = RdX ∪ RdA ∪ U,
// plus non-atomic reads in the extended language).
func (k Kind) IsRead() bool {
	return k == RdX || k == RdAcq || k == UpdRA || k == RdNA
}

// IsWrite reports whether the kind writes memory (Wr = WrX ∪ WrR ∪ U,
// plus non-atomic writes in the extended language).
func (k Kind) IsWrite() bool {
	return k == WrX || k == WrRel || k == UpdRA || k == WrNA
}

// Atomic reports whether the kind is an atomic access; only
// non-atomic accesses may race (undefined behaviour).
func (k Kind) Atomic() bool { return k != RdNA && k != WrNA }

// IsUpdate reports whether the kind is an RMW update (U).
func (k Kind) IsUpdate() bool { return k == UpdRA }

// Acquiring reports whether the kind carries acquire synchronisation
// (RdA ⊇ U: updates are acquiring).
func (k Kind) Acquiring() bool { return k == RdAcq || k == UpdRA }

// Releasing reports whether the kind carries release synchronisation
// (WrR ⊇ U: updates are releasing).
func (k Kind) Releasing() bool { return k == WrRel || k == UpdRA }

// Action is an element of Act: a memory access description. For reads,
// RVal is the value read; for writes, WVal is the value written;
// updates use both.
type Action struct {
	Kind Kind
	Loc  Var
	RVal Val // value read (RdX, RdAcq, UpdRA)
	WVal Val // value written (WrX, WrRel, UpdRA)
}

// Rd returns the relaxed read action rd(x, n).
func Rd(x Var, n Val) Action { return Action{Kind: RdX, Loc: x, RVal: n} }

// RdA returns the acquiring read action rdA(x, n).
func RdA(x Var, n Val) Action { return Action{Kind: RdAcq, Loc: x, RVal: n} }

// Wr returns the relaxed write action wr(x, n).
func Wr(x Var, n Val) Action { return Action{Kind: WrX, Loc: x, WVal: n} }

// WrR returns the releasing write action wrR(x, n).
func WrR(x Var, n Val) Action { return Action{Kind: WrRel, Loc: x, WVal: n} }

// Upd returns the release-acquire update action updRA(x, m, n).
func Upd(x Var, m, n Val) Action {
	return Action{Kind: UpdRA, Loc: x, RVal: m, WVal: n}
}

// RdN returns the non-atomic read action rdNA(x, n).
func RdN(x Var, n Val) Action { return Action{Kind: RdNA, Loc: x, RVal: n} }

// WrN returns the non-atomic write action wrNA(x, n).
func WrN(x Var, n Val) Action { return Action{Kind: WrNA, Loc: x, WVal: n} }

// Var returns var(a), the variable accessed.
func (a Action) Var() Var { return a.Loc }

// RdVal returns rdval(a). It panics for non-reads, mirroring the
// partiality of rdval in the paper.
func (a Action) RdVal() Val {
	if !a.Kind.IsRead() {
		panic("event: RdVal of non-read action " + a.String())
	}
	return a.RVal
}

// WrVal returns wrval(a). It panics for non-writes.
func (a Action) WrVal() Val {
	if !a.Kind.IsWrite() {
		panic("event: WrVal of non-write action " + a.String())
	}
	return a.WVal
}

func (a Action) String() string { return string(a.AppendTo(nil)) }

// AppendTo appends the rendering of a — "rd(x,1)", "updRA(x,0,1)" — to
// buf and returns the extended slice.
func (a Action) AppendTo(buf []byte) []byte {
	switch a.Kind {
	case RdX, RdAcq, RdNA, WrX, WrRel, WrNA, UpdRA:
		buf = append(buf, a.Kind.String()...)
		buf = append(buf, '(')
		buf = append(buf, a.Loc...)
		if a.Kind.IsRead() {
			buf = append(buf, ',')
			buf = strconv.AppendInt(buf, int64(a.RVal), 10)
		}
		if a.Kind.IsWrite() {
			buf = append(buf, ',')
			buf = strconv.AppendInt(buf, int64(a.WVal), 10)
		}
		return append(buf, ')')
	default:
		buf = append(buf, "act("...)
		buf = strconv.AppendUint(buf, uint64(a.Kind), 10)
		return append(buf, ')')
	}
}

// Tag uniquely identifies an event within an execution (the set G).
// In this implementation tags are the event's index in the execution's
// event arena, so Tag doubles as the carrier element for the relation
// engine.
type Tag int

// Event is an element of Evt = G × Act × T.
type Event struct {
	Tag Tag
	Act Action
	TID Thread
}

// Var, RdVal, WrVal lift the action accessors to events (§3.1).

// Var returns var(e).
func (e Event) Var() Var { return e.Act.Var() }

// RdVal returns rdval(e).
func (e Event) RdVal() Val { return e.Act.RdVal() }

// WrVal returns wrval(e).
func (e Event) WrVal() Val { return e.Act.WrVal() }

// IsRead reports e ∈ Rd.
func (e Event) IsRead() bool { return e.Act.Kind.IsRead() }

// IsWrite reports e ∈ Wr.
func (e Event) IsWrite() bool { return e.Act.Kind.IsWrite() }

// IsUpdate reports e ∈ U.
func (e Event) IsUpdate() bool { return e.Act.Kind.IsUpdate() }

// IsInit reports e ∈ IWr: an initialising write by thread 0.
func (e Event) IsInit() bool { return e.TID == InitThread && e.IsWrite() }

// Acquiring reports e ∈ RdA (which includes updates).
func (e Event) Acquiring() bool { return e.Act.Kind.Acquiring() }

// Atomic reports whether the event is an atomic access.
func (e Event) Atomic() bool { return e.Act.Kind.Atomic() }

// Releasing reports e ∈ WrR (which includes updates).
func (e Event) Releasing() bool { return e.Act.Kind.Releasing() }

func (e Event) String() string {
	return fmt.Sprintf("%d:%s@%s", e.TID, e.Act, tagString(e.Tag))
}

func tagString(g Tag) string { return fmt.Sprintf("g%d", int(g)) }
