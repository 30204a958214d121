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
		return runAs(cc, opts, coreOps(opts))
	case sc.Config:
		return runAs(cc, opts, scOps(opts))
	default:
		panic(fmt.Sprintf("explore: unsupported configuration type %T", c))
	}
}

// typedProperty resolves the property for an instantiation at C:
// TypedProperty when set (and of the right type — anything else is a
// loud programming error), otherwise the boxed Property wrapped in a
// per-call boxing adapter, otherwise nil.
func typedProperty[C model.Config](opts Options) func(C) bool {
	if opts.TypedProperty != nil {
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

func coreOps(opts Options) ops[core.Config] {
	return ops[core.Config]{
		expand:     core.Config.AppendSuccessors,
		expandStep: core.Config.AppendStepSuccessors,
		property:   typedProperty[core.Config](opts),
		discard:    core.Config.Discard,
	}
}

func scOps(opts Options) ops[sc.Config] {
	return ops[sc.Config]{
		expand:     sc.Config.AppendSuccessors,
		expandStep: sc.Config.AppendStepSuccessors,
		property:   typedProperty[sc.Config](opts),
	}
}
