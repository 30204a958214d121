package explore_test

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/explore"
	"repro/internal/lang"
	"repro/internal/model"
)

// ExampleRun explores the message-passing idiom: thread 1 publishes
// data and raises a flag with a releasing write, thread 2 reads the
// flag with an acquiring load and then the data. The exploration is
// exhaustive within the event bound, and the final data values show
// the release/acquire guarantee: once the flag read returns 1, the
// stale data value 0 is unobservable.
func ExampleRun() {
	prog := lang.Prog{
		lang.SeqC(
			lang.AssignC("d", lang.V(5)),    // d := 5   (relaxed)
			lang.AssignRelC("f", lang.V(1)), // f :=R 1  (release)
		),
		lang.SeqC(
			lang.AssignC("a", lang.XA("f")), // a := f^A (acquire)
			lang.AssignC("b", lang.X("d")),  // b := d
		),
	}
	cfg := core.NewConfig(prog, map[event.Var]event.Val{
		"d": 0, "f": 0, "a": 0, "b": 0,
	})

	res := explore.Run(cfg, explore.Options{MaxEvents: 10, Workers: 1})
	fmt.Printf("explored=%d terminated=%d truncated=%v\n",
		res.Explored, res.Terminated, res.Truncated)

	// Collect the distinct final (a, b) outcomes with a property that
	// records each terminated configuration and never fails; one
	// worker runs it, so the set needs no lock. POR prunes commuting
	// interleavings but preserves every terminated configuration, so
	// the outcome set is identical with the reduction on.
	outcomes := map[string]bool{}
	explore.Run(cfg, explore.Options{MaxEvents: 10, Workers: 1, POR: true,
		Property: func(c model.Config) bool {
			if c.Terminated() {
				s := c.(core.Config).S
				val := func(x event.Var) event.Val {
					g, _ := s.Last(x)
					return s.Event(g).WrVal()
				}
				outcomes[fmt.Sprintf("a=%d b=%d", val("a"), val("b"))] = true
			}
			return true
		}})
	keys := make([]string, 0, len(outcomes))
	for k := range outcomes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Println(k)
	}
	// Output:
	// explored=35 terminated=3 truncated=false
	// a=0 b=0
	// a=0 b=5
	// a=1 b=5
}
