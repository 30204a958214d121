package proof

import (
	"fmt"
	"slices"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/explore"
	"repro/internal/model"
)

// This file packages the paper's verification method (§5) as reusable
// machinery: a specification is a list of guarded assertions — "when
// the configuration satisfies this guard (typically a program-counter
// condition), this assertion holds" — checked inductively over every
// reachable configuration of the bounded interpreted semantics. The
// Peterson invariants (4)–(10) and the message-passing property of
// Example 5.7 are both instances.

// UpdateOnlyAssertion asserts that a variable is update-only (§5.1) —
// the side condition Lemma 5.6 needs for swap-based synchronisation.
type UpdateOnlyAssertion struct {
	X event.Var
}

// Holds implements Assertion.
func (a UpdateOnlyAssertion) Holds(s *core.State) bool { return s.UpdateOnly(a.X) }

func (a UpdateOnlyAssertion) String() string {
	return fmt.Sprintf("update-only(%s)", a.X)
}

// Annotation is one guarded proof obligation.
type Annotation struct {
	// ID numbers the invariant the obligation is part of (one per
	// thread, say); zero when it stands alone.
	ID int
	// Name labels the obligation in reports.
	Name string
	// When guards the obligation; nil means "always".
	When func(c core.Config) bool
	// Then is the assertion that must hold whenever When does.
	Then Assertion
}

// SpecResult reports an annotation check.
type SpecResult struct {
	// Failed is the first violated annotation, nil when all hold.
	Failed *Annotation
	// At is a configuration witnessing the violation.
	At *core.Config
	// Explored counts configurations checked; Truncated reports
	// whether the bound cut the search.
	Explored  int
	Truncated bool
}

// OK reports whether every annotation held on every reachable
// configuration.
func (r SpecResult) OK() bool { return r.Failed == nil }

// CheckAnnotations explores the configuration space and verifies every
// annotation at every reachable configuration, stopping at the first
// violation.
func CheckAnnotations(cfg core.Config, anns []Annotation, opts explore.Options) SpecResult {
	chk := compile(anns)
	var out SpecResult
	o := opts
	// The property may be evaluated concurrently by a parallel
	// explorer, so it only reports the verdict; the failing annotation
	// is recovered from the violating configuration afterwards.
	o.Property = func(c model.Config) bool {
		return chk.check(c.(core.Config), 0, len(anns)) == len(anns)
	}
	res := explore.Run(cfg, o)
	out.Explored = res.Explored
	out.Truncated = res.Truncated
	if res.Violation != nil {
		bad := res.Violation.(core.Config)
		out.At = &bad
		if i := chk.check(bad, 0, len(anns)); i < len(anns) {
			out.Failed = &anns[i]
		}
	}
	return out
}

// AtPC builds a guard testing a thread's program counter (per the PC
// classifier) against a set of lines. It reads the per-program memo
// and tests a bitmask.
func AtPC(t event.Thread, lines ...int) func(core.Config) bool {
	var mask uint64
	for _, l := range lines {
		mask |= 1 << uint(l) // 0 for a line past 63: no pc matches it
	}
	return func(c core.Config) bool {
		return mask>>pcOf(c.Node(), t)&1 != 0
	}
}

// Both conjoins two guards.
func Both(f, g func(core.Config) bool) func(core.Config) bool {
	return func(c core.Config) bool { return f(c) && g(c) }
}

// disjunction of assertions, for obligations like invariant (5).
type orAssertion struct {
	a, b Assertion
}

// Either asserts a ∨ b.
func Either(a, b Assertion) Assertion { return orAssertion{a: a, b: b} }

// Holds implements Assertion.
func (o orAssertion) Holds(s *core.State) bool {
	return o.a.Holds(s) || o.b.Holds(s)
}

func (o orAssertion) String() string {
	return "(" + o.a.String() + " ∨ " + o.b.String() + ")"
}

// checker is an annotation list compiled for evaluation at every
// configuration of a search: the assertions name their variables by
// an index into the list's variable table, which is resolved to state
// variable ids once per variable table. Concurrent evaluations may
// share it.
type checker struct {
	anns []Annotation
	// then[i] is anns[i].Then compiled; vars are the variables named.
	then []compiled
	vars []event.Var
	// ids caches vars resolved in the last variable table evaluated.
	ids atomic.Pointer[varIDs]
}

// compiled evaluates an assertion on s, given the checker's variable ids.
type compiled func(s *core.State, ids []int) bool

// varIDs is a checker's variables resolved in one variable table: the
// id of each, or -1 for one the table lacks.
type varIDs struct {
	table core.VarTable
	ids   []int
}

func compile(anns []Annotation) *checker {
	c := &checker{anns: anns, then: make([]compiled, len(anns))}
	for i := range anns {
		c.then[i] = c.compile(anns[i].Then)
	}
	return c
}

// compile compiles one assertion, adding its variables to the table.
// A variable the state lacks has no last write (so DV and VO fail) and
// no modification (so it is update-only). An assertion of another type
// is evaluated through Holds.
func (c *checker) compile(a Assertion) compiled {
	switch a := a.(type) {
	case DVAssertion:
		x := c.slot(a.X)
		return func(s *core.State, ids []int) bool { return ids[x] >= 0 && dvOf(s, a.T, ids[x], a.V) }
	case VOAssertion:
		x, y := c.slot(a.X), c.slot(a.Y)
		return func(s *core.State, ids []int) bool { return ids[x] >= 0 && ids[y] >= 0 && voOf(s, ids[x], ids[y]) }
	case UpdateOnlyAssertion:
		x := c.slot(a.X)
		return func(s *core.State, ids []int) bool { return ids[x] < 0 || s.UpdateOnlyOf(ids[x]) }
	case orAssertion:
		l, r := c.compile(a.a), c.compile(a.b)
		return func(s *core.State, ids []int) bool { return l(s, ids) || r(s, ids) }
	}
	return func(s *core.State, _ []int) bool { return a.Holds(s) }
}

// slot returns x's index in the variable table, adding it if new.
func (c *checker) slot(x event.Var) int {
	if i := slices.Index(c.vars, x); i >= 0 {
		return i
	}
	c.vars = append(c.vars, x)
	return len(c.vars) - 1
}

// resolve returns the ids of the checker's variables in s's variable
// table, resolving the names only when the table differs from the
// last one seen.
func (c *checker) resolve(s *core.State) []int {
	table := s.VarTable()
	if r := c.ids.Load(); r != nil && r.table == table {
		return r.ids
	}
	r := &varIDs{table: table, ids: make([]int, len(c.vars))}
	for i, x := range c.vars {
		id, ok := s.VarID(x)
		if !ok {
			id = -1
		}
		r.ids[i] = id
	}
	c.ids.Store(r)
	return r.ids
}

// check returns the index of the first annotation in [i, end) that
// fails on cfg, or end when all of them hold.
func (c *checker) check(cfg core.Config, i, end int) int {
	ids := c.resolve(cfg.S)
	for ; i < end; i++ {
		if w := c.anns[i].When; (w == nil || w(cfg)) && !c.then[i](cfg.S, ids) {
			break
		}
	}
	return i
}
