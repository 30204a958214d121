package lang

import "testing"

func TestStepsCommuteOracle(t *testing.T) {
	cases := []struct {
		name    string
		p       Prog
		commute bool
	}{
		{"write-x/write-y", Prog{AssignC("x", V(1)), AssignC("y", V(2))}, true},
		{"write-x/write-x", Prog{AssignC("x", V(1)), AssignC("x", V(2))}, false},
		{"write-x/read-x", Prog{AssignC("x", V(1)), AssignC("a", X("x"))}, false},
		{"read-x/read-x", Prog{AssignC("a", X("x")), AssignC("b", X("x"))}, true},
		{"silent/write-x", Prog{SeqC(SkipC(), SkipC(), AssignC("x", V(1))), AssignC("x", V(2))}, true},
		{"update-x/read-x", Prog{SwapC("x", 1), AssignC("a", X("x"))}, false},
		{"update-x/write-y", Prog{SwapC("x", 1), AssignC("y", V(2))}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			steps := ProgSteps(tc.p)
			if len(steps) != 2 {
				t.Fatalf("%d enabled steps, want 2", len(steps))
			}
			a, b := steps[0], steps[1]
			if got := StepsCommute(a, b); got != tc.commute {
				t.Fatalf("StepsCommute = %v, want %v", got, tc.commute)
			}
			if got := StepsCommute(b, a); got != tc.commute {
				t.Fatalf("StepsCommute (swapped) = %v, want %v", got, tc.commute)
			}
			if StepsCommute(a, a) {
				t.Fatal("a step must not commute with itself (same thread)")
			}
		})
	}
}
