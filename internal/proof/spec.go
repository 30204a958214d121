package proof

import (
	"fmt"

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
	// Name labels the obligation in reports.
	Name string
	// When guards the obligation; nil means "always".
	When func(c core.Config) bool
	// Then is the assertion that must hold whenever When does.
	Then Assertion
}

// holds evaluates the obligation on a configuration.
func (a Annotation) holds(c core.Config) bool {
	if a.When != nil && !a.When(c) {
		return true
	}
	return a.Then.Holds(c.S)
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
	var out SpecResult
	o := opts
	// The property may be evaluated concurrently by a parallel
	// explorer, so it only reports the verdict; the failing annotation
	// is recovered from the violating configuration afterwards.
	o.Property = func(c model.Config) bool {
		cc := c.(core.Config)
		for i := range anns {
			if !anns[i].holds(cc) {
				return false
			}
		}
		return true
	}
	res := explore.Run(cfg, o)
	out.Explored = res.Explored
	out.Truncated = res.Truncated
	if res.Violation != nil {
		bad := res.Violation.(core.Config)
		out.At = &bad
		for i := range anns {
			if !anns[i].holds(bad) {
				out.Failed = &anns[i]
				break
			}
		}
	}
	return out
}

// AtPC builds a guard testing a thread's program counter (per the PC
// classifier) against a set of lines.
func AtPC(t event.Thread, lines ...int) func(core.Config) bool {
	want := map[int]bool{}
	for _, l := range lines {
		want[l] = true
	}
	return func(c core.Config) bool {
		return want[PC(c.Program().Thread(t))]
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

// PetersonAnnotations expresses the invariants (4)–(10) of §5.2 in the
// generic annotation language; CheckAnnotations over these is
// equivalent to CheckPetersonInvariants over the exploration.
func PetersonAnnotations() []Annotation {
	other := func(t event.Thread) event.Thread { return 3 - t }
	var anns []Annotation

	anns = append(anns, Annotation{
		Name: "(4) turn update-only",
		Then: UpdateOnlyAssertion{X: "turn"},
	})
	anns = append(anns, Annotation{
		Name: "(5) turn =_1 2 ∨ turn =_2 1",
		Then: Either(
			DVAssertion{T: 1, X: "turn", V: 2},
			DVAssertion{T: 2, X: "turn", V: 1},
		),
	})
	for _, t := range []event.Thread{1, 2} {
		t := t
		th := other(t)
		anns = append(anns,
			Annotation{
				Name: fmt.Sprintf("(6) t%d", t),
				When: AtPC(t, 3, 4, 5, 6),
				Then: DVAssertion{T: t, X: flagVar(t), V: event.True},
			},
			Annotation{
				Name: fmt.Sprintf("(7) t%d", t),
				When: AtPC(t, 4, 5, 6),
				Then: VOAssertion{X: flagVar(t), Y: "turn"},
			},
			Annotation{
				Name: fmt.Sprintf("(8) t%d", t),
				When: Both(AtPC(t, 4, 5, 6), AtPC(th, 4, 5, 6)),
				Then: Either(
					DVAssertion{T: t, X: flagVar(th), V: event.True},
					DVAssertion{T: th, X: "turn", V: event.Val(t)},
				),
			},
			Annotation{
				Name: fmt.Sprintf("(9) t%d", t),
				When: Both(AtPC(t, 5), AtPC(th, 4, 5, 6)),
				Then: DVAssertion{T: th, X: "turn", V: event.Val(t)},
			},
			Annotation{
				Name: fmt.Sprintf("(10) t%d", t),
				When: AtPC(t, 2),
				Then: DVAssertion{T: t, X: flagVar(t), V: event.False},
			},
		)
	}
	return anns
}
