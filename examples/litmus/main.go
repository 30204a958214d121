// Litmus: the text front end, end to end.
//
// The example parses a litmus file (embedded below; the same syntax is
// accepted by c11 litmus -f), runs it through the operational
// explorer, and cross-checks the outcome set against the axiomatic
// generate-and-test procedure — soundness and completeness at work on
// a user-written test.
//
// Run with: go run ./examples/litmus
package main

import (
	"fmt"
	"log"

	"repro/internal/axiomatic"
	"repro/internal/explore"
	"repro/internal/parser"
)

const src = `
// Store buffering with release/acquire: the weak outcome a=0, b=0
// is allowed (RA is weaker than SC).
init x=0 y=0 a=0 b=0
thread 1 { x :=R 1; a := y^A; }
thread 2 { y :=R 1; b := x^A; }
observe a b
allow  a=0 b=0
allow  a=1 b=1
`

func main() {
	f, err := parser.Parse("sb.lit", src)
	if err != nil {
		log.Fatal("litmus: ", err)
	}
	tc, err := f.Test()
	if err != nil {
		log.Fatal("litmus: ", err)
	}

	rep := tc.Run(explore.Options{MaxEvents: 16})
	fmt.Println(rep.Summary())
	if !rep.Pass() {
		log.Fatalf("litmus: expectations failed: %v / %v",
			rep.MissingAllowed, rep.ReachedForbidden)
	}

	// Cross-check the two semantics on this program.
	op, res := axiomatic.OperationalExecutions(tc.Prog, tc.Init, explore.Options{MaxEvents: 32})
	if res.Verdict != explore.VerdictProved || res.Truncated {
		log.Fatalf("litmus: operational search incomplete: %s", res.Verdict)
	}
	ax := axiomatic.ValidExecutions(tc.Prog, tc.Init, 32)
	fmt.Printf("executions: operational=%d axiomatic=%d\n", len(op), len(ax))
	if len(op) != len(ax) {
		log.Fatal("litmus: semantics disagree")
	}
	for sig := range op {
		if _, ok := ax[sig]; !ok {
			log.Fatal("litmus: operational-only execution found")
		}
	}
	fmt.Println("operational and axiomatic semantics agree (Theorems 4.4 + 4.8)")
}
