package core_test

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/lang"
)

// Building an execution step by step through the event semantics: the
// release/acquire handshake hides the stale initial value.
func ExampleState_StepRead() {
	s := core.Init(map[event.Var]event.Val{"d": 0, "f": 0})
	id, _ := s.InitialFor("d")
	iff, _ := s.InitialFor("f")

	s, _, _ = s.StepWrite(1, false, "d", 5, id)
	s, wf, _ := s.StepWrite(1, true, "f", 1, iff)
	s, _, _ = s.StepRead(2, true, "f", wf.Tag)

	for _, w := range s.ObservableFor(2, "d") {
		fmt.Println(s.Event(w).Act)
	}
	// Output:
	// wr(d,5)
}

// The interpreted semantics enumerates all memory-model choices for a
// program step; the explorer uses this to cover the state space.
func ExampleConfig_Successors() {
	p := lang.Prog{lang.AssignC("r", lang.X("x"))}
	c := core.NewConfig(p, map[event.Var]event.Val{"x": 7, "r": 0})
	for _, s := range c.Successors() {
		// The new event is the successor state's last.
		fmt.Println(s.S.Event(event.Tag(s.S.NumEvents() - 1)).Act)
	}
	// Output:
	// rd(x,7)
}

// Updates may not observe covered writes: the second swap is forced to
// read the first.
func ExampleState_StepRMW() {
	s := core.Init(map[event.Var]event.Val{"turn": 1})
	w0, _ := s.Last("turn")
	s, u1, _ := s.StepRMW(1, "turn", 2, w0)
	if _, _, err := s.StepRMW(2, "turn", 1, w0); err != nil {
		fmt.Println("covered:", err != nil)
	}
	s, u2, _ := s.StepRMW(2, "turn", 1, u1.Tag)
	fmt.Println(u2.Act)
	_ = s
	// Output:
	// covered: true
	// updRA(turn,2,1)
}
