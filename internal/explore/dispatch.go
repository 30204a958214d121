package explore

// Dispatch from the boxed model.Config seam into the monomorphised
// engine. Run type-switches on the concrete configuration type and
// instantiates the generic engine at it, so both backends explore with
// zero interface boxing on the successor path. The switch is
// exhaustive over the backends of internal/model/backends: a
// model.Config is built by one of them (its methods mention internal
// types, so no package outside this module can supply one), and
// anything else is a programming error. The explicit switch keeps the dependency from the
// engine to the backends visible in the imports (neither backend
// imports explore, so the edge is acyclic).

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/sc"
)

// Run explores the state space of c under the given options. c must
// come from one of the repository's backends (rar or sc); any other
// configuration type panics.
func Run(c model.Config, opts Options) Result {
	switch cc := c.(type) {
	case core.Config:
		return runAs(cc, opts)
	case sc.Config:
		return runAs(cc, opts)
	default:
		panic(fmt.Sprintf("explore: unsupported configuration type %T", c))
	}
}

// typedProperty resolves the property for an instantiation at C:
// TypedProperty when set (and of the right type), otherwise the boxed
// Property wrapped in a per-call boxing adapter, otherwise nil. A
// mismatched type, or both fields set, is a loud programming error:
// the property that would be silently ignored could turn violations
// into spurious PROVED verdicts.
func typedProperty[C model.Config](opts Options) func(C) bool {
	if opts.TypedProperty != nil {
		if opts.Property != nil {
			panic("explore: both Property and TypedProperty are set")
		}
		p, ok := opts.TypedProperty.(func(C) bool)
		if !ok {
			panic(fmt.Sprintf("explore: TypedProperty has type %T, want func(%T) bool",
				opts.TypedProperty, *new(C)))
		}
		return p
	}
	if opts.Property == nil {
		return nil
	}
	p := opts.Property
	return func(c C) bool { return p(c) }
}
