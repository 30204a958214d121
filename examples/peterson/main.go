// Peterson: machine-check the paper's flagship verification (§5.2).
//
// The example explores the bounded state space of the release-acquire
// Peterson lock (Algorithm 1), checking the invariants (4)–(10) of the
// paper's proof at every reachable configuration, and then shows the
// negative control: with the RA swap downgraded to a plain write, the
// explorer produces a concrete interleaving putting both threads in
// the critical section.
//
// Run with: go run ./examples/peterson
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/litmus"
	"repro/internal/model"
	"repro/internal/proof"
)

func main() {
	// 1. The RA Peterson lock: invariants + mutual exclusion.
	prog, vars := litmus.Peterson()
	res := explore.Run(core.NewConfig(prog, vars), explore.Options{
		MaxEvents: 12,
		Property: func(c model.Config) bool {
			cc := c.(core.Config)
			return len(proof.CheckPetersonInvariants(cc)) == 0 &&
				proof.Theorem58(cc)
		},
	})
	if res.Violation != nil {
		log.Fatalf("peterson: verification failed:\n%s", res.Violation.Program())
	}
	fmt.Printf("RA Peterson: invariants (4)-(10) and mutual exclusion hold\n")
	fmt.Printf("  (%d configurations explored, max depth %d)\n\n", res.Explored, res.Depth)

	// 2. The paper's proof structure, replayed: invariant (9) plus the
	// determinate-value agreement lemma refute a double critical
	// section in every reachable state.
	res2 := explore.Run(core.NewConfig(prog, vars), explore.Options{
		MaxEvents: 10,
		Property: func(c model.Config) bool {
			return proof.DeriveTheorem58(c.(core.Config))
		},
	})
	if res2.Violation != nil {
		log.Fatal("peterson: Theorem 5.8 derivation failed")
	}
	fmt.Println("Theorem 5.8 derivation (invariant 9 + Lemma 5.4): OK")

	// 3. Negative control: the weakened lock fails, with a witness.
	weak, wvars := litmus.PetersonWeakTurn()
	trace, found := explore.FindTrace(core.NewConfig(weak, wvars), explore.Options{
		MaxEvents: 12,
	}, func(c model.Config) bool { return !litmus.MutualExclusion(c) })
	if !found {
		log.Fatal("peterson: weak variant unexpectedly safe")
	}
	fmt.Printf("\nweak-turn Peterson: mutual exclusion VIOLATED in %d steps\n", len(trace.Configs)-1)
	last := trace.Configs[len(trace.Configs)-1].(core.Config)
	fmt.Printf("  both threads at the critical section label:\n  %s\n", last.Program())
	fmt.Printf("  pc_1 = %d, pc_2 = %d\n",
		proof.PC(last.Program().Thread(1)), proof.PC(last.Program().Thread(2)))

	// The proof's premise that breaks: turn is no longer update-only
	// (invariant 4), so Lemma 5.6 cannot pin the swap's observation.
	bad := proof.CheckPetersonInvariants(last)
	fmt.Printf("  invariants violated in the witness state: %v\n", bad)
}
