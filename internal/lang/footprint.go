package lang

import "repro/internal/event"

// This file computes static variable footprints of commands — the
// over-approximation of the variables a residual program may ever read
// or write. The partial-order-reduction planner (PlanPOR, plan.go)
// uses footprints to justify singleton persistent sets: a thread whose
// next access can never conflict with any variable another live thread
// may touch can be explored alone, because every deferred transition
// of the other threads commutes with it (see StepsCommute for the
// per-step notion of commutation the footprints over-approximate).

// VarSet is a small set of variables backed by a sorted slice — the
// programs of the command language touch a handful of variables, so a
// slice beats a map on both footprint construction and lookup.
type VarSet []event.Var

// Has reports x ∈ s.
func (s VarSet) Has(x event.Var) bool {
	for _, y := range s {
		if y == x {
			return true
		}
		if y > x {
			return false
		}
	}
	return false
}

// add inserts x, keeping the slice sorted and duplicate-free.
func (s *VarSet) add(x event.Var) {
	v := *s
	for i, y := range v {
		if y == x {
			return
		}
		if y > x {
			v = append(v, "")
			copy(v[i+1:], v[i:])
			v[i] = x
			*s = v
			return
		}
	}
	*s = append(v, x)
}

// Footprint is the static may-access footprint of a command: the
// variables it may read and the variables it may write (updates —
// x.swap and x.cas — count as both) anywhere in its remaining
// execution. It is an over-approximation: branches not taken and loop
// bodies never entered still contribute. Symbolically indexed
// accesses (a[I] with I not yet a value) may touch any cell of the
// array, so they contribute the array *base* to the wildcard sets
// ReadArrays/WriteArrays instead of a concrete variable; a
// literal-index access is an ordinary cell variable and lands in
// Reads/Writes.
type Footprint struct {
	Reads  VarSet
	Writes VarSet
	// ReadArrays and WriteArrays hold array bases whose cells may be
	// read/written through a symbolic index.
	ReadArrays  VarSet
	WriteArrays VarSet
}

// ConflictsWith reports whether an access to x — a write access when
// wr is set, a plain read otherwise — may conflict with this
// footprint: two accesses to the same variable conflict when at least
// one of them is a write. An access to a cell additionally conflicts
// with the wildcard footprint of its array base.
func (f Footprint) ConflictsWith(x event.Var, wr bool) bool {
	if f.Writes.Has(x) {
		return true
	}
	if wr && f.Reads.Has(x) {
		return true
	}
	if len(f.ReadArrays) == 0 && len(f.WriteArrays) == 0 {
		return false
	}
	base, ok := CellOf(x)
	if !ok {
		return false
	}
	if f.WriteArrays.Has(base) {
		return true
	}
	return wr && f.ReadArrays.Has(base)
}

// MayAccess returns the static footprint of c.
func MayAccess(c Com) Footprint {
	var f Footprint
	comFootprint(c, &f)
	return f
}

func comFootprint(c Com, f *Footprint) {
	switch x := c.(type) {
	case Skip:
	case Assign:
		if x.Idx != nil {
			f.WriteArrays.add(x.X)
			exprFootprint(x.Idx, f)
		} else {
			f.Writes.add(x.X)
		}
		exprFootprint(x.E, f)
	case Swap:
		f.Reads.add(x.X)
		f.Writes.add(x.X)
	case Cas:
		if x.Idx != nil {
			f.ReadArrays.add(x.X)
			f.WriteArrays.add(x.X)
			exprFootprint(x.Idx, f)
		} else {
			f.Reads.add(x.X)
			f.Writes.add(x.X)
		}
		exprFootprint(x.Old, f)
		exprFootprint(x.New, f)
		comFootprint(x.Then, f)
		comFootprint(x.Else, f)
	case Seq:
		comFootprint(x.C1, f)
		comFootprint(x.C2, f)
	case If:
		exprFootprint(x.B, f)
		comFootprint(x.Then, f)
		comFootprint(x.Else, f)
	case While:
		exprFootprint(x.Guard, f)
		exprFootprint(x.Cur, f)
		comFootprint(x.Body, f)
	case Label:
		comFootprint(x.C, f)
	}
}

// exprFootprint accumulates the variables (and array wildcards)
// loaded by e.
func exprFootprint(e Expr, f *Footprint) {
	switch x := e.(type) {
	case Lit:
	case Load:
		f.Reads.add(x.X)
	case IdxLoad:
		f.ReadArrays.add(x.A)
		exprFootprint(x.I, f)
	case Un:
		exprFootprint(x.E, f)
	case Bin:
		exprFootprint(x.L, f)
		exprFootprint(x.R, f)
	}
}

// Target returns the unique successor command of a non-read step. For
// read and CAS steps the successor depends on the value read (call
// Apply); ok is false there.
func (s Step) Target() (Com, bool) {
	if s.Kind == StepRead || s.Kind == StepCas {
		return nil, false
	}
	return s.next, true
}

// SilentProgress reports whether the deterministic chain of silent
// steps from c reaches a memory step or termination within limit τ
// steps. A false result flags (possible) silent divergence — a command
// like "while (1) { skip }" whose silent steps cycle without ever
// touching memory. The explorer's partial-order reduction must not
// pick such a step as a reducing singleton: every cycle of the
// configuration graph consists of silent transitions (memory steps
// strictly grow the event set), so reducing to a diverging silent
// thread at every state of its cycle would postpone the other threads
// forever — the classic "ignoring problem" of stateful partial-order
// reduction. Requiring progress breaks exactly those cycles: any
// all-silent cycle contains a thread whose command sequence repeats
// without a memory step, and that thread fails this check. The limit
// bounds the walk; chains longer than it are conservatively treated
// as diverging (costing reduction, never soundness).
func SilentProgress(c Com, limit int) bool {
	for i := 0; i < limit; i++ {
		s, ok := StepOf(c)
		if !ok || s.Kind != StepSilent {
			return true
		}
		c = s.Apply(0)
	}
	return false
}

// VisibleStep reports whether taking step s from command c can change
// the label at the head of the command — the program-counter
// observation AtLabel that safety properties such as mutual exclusion
// read. A step is visible when the head is currently labelled (the
// step leaves the label) or when its successor's head is labelled (the
// step arrives at one). Read steps never expose a label: they rewrite
// an expression in place, keeping the same head command. The
// partial-order reduction never prunes around visible steps, so
// label-based properties see the same interleavings as the full
// search.
func VisibleStep(c Com, s Step) bool {
	if AtLabel(c) != "" {
		return true
	}
	if t, ok := s.Target(); ok {
		return AtLabel(t) != ""
	}
	if s.Kind == StepCas {
		// A CAS branches on the value read: either face may arrive at
		// a labelled command, and both must count.
		return AtLabel(s.Apply(s.Exp)) != "" || AtLabel(s.Apply(s.Exp+1)) != ""
	}
	return false
}
