package core

import (
	"errors"
	"fmt"

	"repro/internal/event"
	"repro/internal/fingerprint"
)

// This file implements the event semantics of Figure 3: the transition
// relation σ --(w,e)-->_RA σ', where w is the write observed by the
// new event e. Each rule validates its premises and returns an error
// when the transition is not enabled, so every constructed state is a
// valid C11 state (Theorem 4.4 is checked in the test suite).

// Transition errors.
var (
	// ErrNotObservable: the chosen write is not in OW_σ(t).
	ErrNotObservable = errors.New("core: write not observable by thread")
	// ErrCovered: the chosen write is covered by an update (CW_σ).
	ErrCovered = errors.New("core: write covered by an update")
	// ErrVarMismatch: the chosen write is to a different variable.
	ErrVarMismatch = errors.New("core: variable mismatch")
	// ErrNotWrite: the chosen event is not a write.
	ErrNotWrite = errors.New("core: observed event is not a write")
	// ErrBadThread: the stepping thread id is not a program thread id
	// (1 .. maxThread).
	ErrBadThread = errors.New("core: invalid thread id")
)

// StepRead implements rule READ: thread t reads variable x from the
// observable write w, adding event e with action rd(x, wrval(w)) (or
// rdA when acq). It returns the successor state and the new event.
func (s *State) StepRead(t event.Thread, acq bool, x event.Var, w event.Tag) (*State, event.Event, error) {
	k := event.RdX
	if acq {
		k = event.RdAcq
	}
	return s.StepReadKind(t, k, x, w)
}

// StepReadKind is StepRead generalised over the read kind (RdX, RdAcq
// or the extended RdNA). Non-atomic reads follow the same READ rule —
// they behave like relaxed reads in the model; racing on them is
// flagged by internal/races.
func (s *State) StepReadKind(t event.Thread, k event.Kind, x event.Var, w event.Tag) (*State, event.Event, error) {
	if !k.IsRead() || k.IsUpdate() {
		return nil, event.Event{}, fmt.Errorf("core: StepReadKind with kind %v", k)
	}
	if err := s.checkObserved(t, x, w, false); err != nil {
		return nil, event.Event{}, err
	}
	return stepped(s.read(t, k, w))
}

// stepped pairs a successor with the event its step appended — the
// exported step rules' result shape.
func stepped(out *State) (*State, event.Event, error) {
	return out, out.Event(event.Tag(len(out.events) - 1)), nil
}

// read builds rule READ's successor without re-validating its
// premises: w must be in OW_σ(t)|ₓ, and the new event reads w's
// variable. The step rules below validate and then build; the
// interpreted semantics builds directly from choices it drew from the
// observability sets (interp.go).
func (s *State) read(t event.Thread, k event.Kind, w event.Tag) *State {
	we := s.events[w]
	out := s.grow(t, newRec(k, int(we.x), t, we.wval, 0).from(w)) // rf' = rf ∪ {(w, e)}
	g := len(s.events)
	out.notePair(fingerprint.LabelRF, int(w), g)
	out.linkParent(s, g, w, t, true, false)
	return out
}

// StepWrite implements rule WRITE: thread t writes value v to x,
// inserting the new event immediately after w in mo (mo' = mo[w, e]).
// w must be observable and not covered.
func (s *State) StepWrite(t event.Thread, rel bool, x event.Var, v event.Val, w event.Tag) (*State, event.Event, error) {
	k := event.WrX
	if rel {
		k = event.WrRel
	}
	return s.StepWriteKind(t, k, x, v, w)
}

// StepWriteKind is StepWrite generalised over the write kind (WrX,
// WrRel or the extended WrNA).
func (s *State) StepWriteKind(t event.Thread, k event.Kind, x event.Var, v event.Val, w event.Tag) (*State, event.Event, error) {
	if !k.IsWrite() || k.IsUpdate() {
		return nil, event.Event{}, fmt.Errorf("core: StepWriteKind with kind %v", k)
	}
	if err := s.checkObserved(t, x, w, true); err != nil {
		return nil, event.Event{}, err
	}
	return stepped(s.write(t, k, v, w))
}

// write builds rule WRITE's successor without re-validating its
// premises: w must be in (OW_σ(t) \ CW_σ)|ₓ, and the new event writes
// w's variable.
func (s *State) write(t event.Thread, k event.Kind, v event.Val, w event.Tag) *State {
	out := s.grow(t, newRec(k, int(s.events[w].x), t, 0, v))
	g := len(s.events)
	out.insertMO(int(w), g)
	out.linkParent(s, g, w, t, false, true)
	return out
}

// StepRMW implements rule RMW: thread t atomically reads wrval(w) from
// x and writes v, with rf' = rf ∪ {(w, e)} and mo' = mo[w, e]. w must
// be observable and not covered.
func (s *State) StepRMW(t event.Thread, x event.Var, v event.Val, w event.Tag) (*State, event.Event, error) {
	if err := s.checkObserved(t, x, w, true); err != nil {
		return nil, event.Event{}, err
	}
	return stepped(s.rmw(t, v, w))
}

// rmw builds rule RMW's successor without re-validating its premises:
// w must be in (OW_σ(t) \ CW_σ)|ₓ, and the new event updates w's
// variable. The update covers w: CW' = CW ∪ {w}.
func (s *State) rmw(t event.Thread, v event.Val, w event.Tag) *State {
	we := s.events[w]
	out := s.grow(t, newRec(event.UpdRA, int(we.x), t, we.wval, v).from(w))
	cw := out.coveredRow()
	cw.Set(int(w))
	g := len(s.events)
	out.notePair(fingerprint.LabelRF, int(w), g)
	out.insertMO(int(w), g)
	out.linkParent(s, g, w, t, true, true)
	return out
}

// checkObserved validates the common premises of the Figure 3 rules.
func (s *State) checkObserved(t event.Thread, x event.Var, w event.Tag, excludeCovered bool) error {
	if t <= event.InitThread || t > maxThread {
		return fmt.Errorf("%w: %d", ErrBadThread, t)
	}
	if int(w) < 0 || int(w) >= len(s.events) {
		return fmt.Errorf("%w: tag %d out of range", ErrNotWrite, w)
	}
	we := s.Event(w)
	if !we.IsWrite() {
		return ErrNotWrite
	}
	if we.Var() != x {
		return fmt.Errorf("%w: %s writes %s, not %s", ErrVarMismatch, we, we.Var(), x)
	}
	s.memo.mu.Lock()
	observable := s.observableLocked(t).Test(int(w))
	s.memo.mu.Unlock()
	covered := excludeCovered && s.coveredRow().Test(int(w))
	if !observable {
		return fmt.Errorf("%w: %s by thread %d", ErrNotObservable, we, t)
	}
	if covered {
		return fmt.Errorf("%w: %s", ErrCovered, we)
	}
	return nil
}

// insertMO performs mo := mo[w, e] = mo ∪ (mo⁺w × {e}) ∪ ({e} × mo[w])
// where mo⁺w = {w} ∪ mo⁻¹[w] (§3.2): e is placed immediately after w.
// Only writes to w's variable can be mo-related to it, so candidates
// come from the per-variable write row, not a scan of D. The row
// includes e itself (set by grow), which is skipped.
func (s *State) insertMO(wi, ei int) {
	x := int(s.events[wi].x)
	// {e' | (e', w) ∈ mo} ∪ {w} all precede e.
	xs := s.varWrites(x)
	for vi := xs.Next(0); vi >= 0; vi = xs.Next(vi + 1) {
		if vi != ei && (vi == wi || s.mo.Has(vi, wi)) {
			s.mo.Add(vi, ei)
			s.notePair(fingerprint.LabelMO, vi, ei)
		}
	}
	// e precedes everything w preceded. Iterating w's row directly is
	// safe: the loop only mutates e's row, and e ≠ w (e is the fresh
	// maximal tag), so the row being walked never changes under us.
	row := s.mo.Row(wi)
	for j := row.Next(0); j >= 0; j = row.Next(j + 1) {
		if j != ei {
			s.mo.Add(ei, j)
			s.notePair(fingerprint.LabelMO, ei, j)
		}
	}
	// e is the new mo-maximal write to x iff it was inserted after the
	// previous maximum. The index block is this state's own copy.
	if s.idx[x] == uint64(wi) {
		s.idx[x] = uint64(ei)
	}
}
