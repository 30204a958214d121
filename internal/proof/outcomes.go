package proof

// Linearizability-style outcome properties for the data-structure
// workload tier (internal/ds). The assertions of assertions.go speak
// about one RAR state's event structure; the properties here are
// model-generic instead: they judge the *set of final outcomes* a
// bounded exploration produced (the litmus layer's Summarise keys),
// so the same property checks a structure under the RAR and SC
// backends alike. A property names one way a client history could
// fail to linearize — a lost stack push, a duplicated dequeue, two
// threads inside a critical section — and flags every outcome that
// witnesses it.

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/event"
	"repro/internal/lang"
	"repro/internal/model"
)

// OutcomeProp is a linearizability-style property over final
// outcomes: Violated reports whether one outcome (a final assignment
// of the observed variables) witnesses a violation.
type OutcomeProp struct {
	Name string
	// Doc states the property positively ("every push is reachable
	// from top"), for reports.
	Doc string
	// Violated judges one parsed outcome.
	Violated func(o map[event.Var]event.Val) bool
}

// ParseOutcomeKey inverts the event.AppendOutcome rendering
// "x=1;y[0]=2;" into an assignment map. Cell names pass through
// verbatim — they are ordinary variables.
func ParseOutcomeKey(key string) (map[event.Var]event.Val, error) {
	out := map[event.Var]event.Val{}
	for _, part := range strings.Split(key, ";") {
		if part == "" {
			continue
		}
		eq := strings.LastIndexByte(part, '=')
		if eq <= 0 {
			return nil, fmt.Errorf("proof: malformed outcome entry %q in %q", part, key)
		}
		v, err := strconv.Atoi(part[eq+1:])
		if err != nil {
			return nil, fmt.Errorf("proof: malformed outcome value %q in %q", part, key)
		}
		out[event.Var(part[:eq])] = event.Val(v)
	}
	return out, nil
}

// CheckOutcomeProps evaluates the properties over a reachable-outcome
// set (keys in the Summarise format, as litmus.Report.Outcomes holds
// them) and returns one violation line per (property, outcome) pair,
// deterministically ordered by property then key order of the input
// map's sorted keys. An unparsable key is itself reported.
func CheckOutcomeProps(outcomes map[string]bool, props []OutcomeProp) []string {
	keys := make([]string, 0, len(outcomes))
	for k, reached := range outcomes {
		if reached {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var violations []string
	for _, p := range props {
		for _, k := range keys {
			o, err := ParseOutcomeKey(k)
			if err != nil {
				violations = append(violations, fmt.Sprintf("%s: %v", p.Name, err))
				continue
			}
			if p.Violated(o) {
				violations = append(violations, fmt.Sprintf("%s violated by %s", p.Name, k))
			}
		}
	}
	return violations
}

// ClientThreads returns the thread identifiers 1..n — every client
// thread of an n-thread program, in the litmus layer's numbering.
func ClientThreads(n int) []event.Thread {
	out := make([]event.Thread, n)
	for i := range out {
		out[i] = event.Thread(i + 1)
	}
	return out
}

// MutexAtLabel returns the safety property "no two of the given
// threads are simultaneously at the named label", as an exploration
// property (true = safe) usable with explore.Options.Property under
// any backend. It generalises the two-thread Peterson check of the
// litmus catalog to the N client threads of a data-structure
// workload: a ticket lock's critical section is mutually exclusive
// whatever the client count.
func MutexAtLabel(label string, threads ...event.Thread) func(model.Config) bool {
	return func(c model.Config) bool {
		p := c.Program()
		inside := 0
		for _, t := range threads {
			if lang.AtLabel(p.Thread(t)) == label {
				inside++
				if inside > 1 {
					return false
				}
			}
		}
		return true
	}
}
