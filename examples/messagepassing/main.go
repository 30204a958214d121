// Message passing: the proof of Example 5.7, step by step.
//
// The example walks the determinate-value and variable-ordering
// assertions through one execution of the message-passing idiom,
// naming the Figure 4 rule that justifies each step — exactly the
// proof sketched in the paper — and then model-checks the property on
// every execution.
//
// Run with: go run ./examples/messagepassing
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/explore"
	"repro/internal/lang"
	"repro/internal/model"
	"repro/internal/proof"
)

func main() {
	s := core.Init(map[event.Var]event.Val{"d": 0, "f": 0})
	id, _ := s.InitialFor("d")
	iff, _ := s.InitialFor("f")

	fmt.Println("Init: every thread has determinate values (rule Init):")
	fmt.Printf("  d =_1 0: %v, d =_2 0: %v\n", proof.DV(s, 1, "d", 0), proof.DV(s, 2, "d", 0))

	// Thread 1, line 1: d := 5.
	s, _, err := s.StepWrite(1, false, "d", 5, id)
	check(err)
	fmt.Println("\nafter d := 5 (rule ModLast):")
	fmt.Printf("  d =_1 5: %v\n", proof.DV(s, 1, "d", 5))
	fmt.Printf("  d =_2 5: %v (thread 2 has not synchronised)\n", proof.DV(s, 2, "d", 5))

	// Thread 1, line 2: f :=R 1. WOrd gives d ↪ f: the last write to d
	// happens-before the last write to f.
	s, wf, err := s.StepWrite(1, true, "f", 1, iff)
	check(err)
	fmt.Println("\nafter f :=R 1 (rule WOrd):")
	fmt.Printf("  d ↪ f: %v\n", proof.VO(s, "d", "f"))

	// Thread 2 acquires the flag. Transfer copies d =_1 5 to thread 2.
	before := s
	s, e, err := s.StepRead(2, true, "f", wf.Tag)
	check(err)
	tr := proof.Transition{Before: before, M: wf.Tag, E: e, After: s}
	prem, concl := proof.RuleTransfer(tr, 1, "d", 5)
	fmt.Println("\nafter the acquiring read of f (rule Transfer):")
	fmt.Printf("  premises hold: %v, conclusion d =_2 5: %v\n", prem, concl)
	if !prem || !concl {
		log.Fatal("messagepassing: Transfer failed")
	}

	// Lemma 5.3: with d =_2 5, thread 2's read of d must return 5.
	obs := s.ObservableFor(2, "d")
	fmt.Printf("  thread 2 can observe %d write(s) to d (Lemma 5.3 forces 5)\n", len(obs))

	// Finally, model-check the full property on every execution of the
	// looping program: past the await loop, thread 2 always holds
	// d =_2 5.
	p := lang.Prog{
		lang.SeqC(
			lang.AssignC("d", lang.V(5)),
			lang.AssignRelC("f", lang.V(1)),
		),
		lang.SeqC(
			lang.WhileC(lang.Eq(lang.XA("f"), lang.V(0)), lang.SkipC()),
			lang.LabelC("consume", lang.AssignC("r", lang.X("d"))),
		),
	}
	res := explore.Run(core.NewConfig(p, map[event.Var]event.Val{"d": 0, "f": 0, "r": 0}),
		explore.Options{
			MaxEvents: 12,
			Property: func(c model.Config) bool {
				cc := c.(core.Config)
				if lang.AtLabel(cc.Program().Thread(2)) == "consume" {
					return proof.DV(cc.S, 2, "d", 5)
				}
				return true
			},
		})
	if res.Violation != nil {
		log.Fatal("messagepassing: property fails")
	}
	fmt.Printf("\nmodel check: d =_2 5 past the loop in all %d configurations\n", res.Explored)
}

func check(err error) {
	if err != nil {
		log.Fatal("messagepassing: ", err)
	}
}
