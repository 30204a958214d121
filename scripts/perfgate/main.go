// Command perfgate compares a fresh bench-snapshot JSON against a
// committed baseline and fails on perf regressions. It is the CI
// perf-regression gate: for every benchmark present in both files it
// requires states/op to match exactly (the searches are deterministic
// — a drifted count means the state space itself changed, which is a
// correctness question, not a perf one) and allocs/op to stay within
// a tolerance band of the baseline (default +20%; ns/op is left
// ungated because shared CI runners make wall-clock too noisy to
// gate on).
//
// Usage:
//
//	perfgate -baseline BENCH_pr24.json -current BENCH_ci.json
//	perfgate -baseline ... -current ... -tolerance 10   # percent
//
// Both snapshots must run each common benchmark for the same number of
// iterations: per-op allocations amortise one-off setup over the
// iterations, so a 3x row reads higher than the same code's 10x row.
//
// Exit status: 0 when every common benchmark is within band, 1 on any
// regression or states/op drift, 2 on malformed input, when the two
// snapshots share no benchmarks (an empty comparison must not pass) or
// when a common benchmark's iteration counts differ.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

type snapshot struct {
	Label      string                       `json:"label"`
	Commit     string                       `json:"commit"`
	Benchmarks []map[string]json.RawMessage `json:"benchmarks"`
}

// row is one benchmark's gated metrics. Metrics a row lacks (e.g.
// kernel micro-benchmarks report no states/op) are simply not gated.
type row struct {
	iters, states, allocs float64
	hasStates             bool
	hasAllocs             bool
}

func load(path string) (map[string]row, string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, "", err
	}
	var s snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, "", fmt.Errorf("%s: %v", path, err)
	}
	out := make(map[string]row, len(s.Benchmarks))
	for _, b := range s.Benchmarks {
		var name string
		if err := json.Unmarshal(b["name"], &name); err != nil {
			return nil, "", fmt.Errorf("%s: benchmark without a name", path)
		}
		var r row
		if err := json.Unmarshal(b["iterations"], &r.iters); err != nil {
			return nil, "", fmt.Errorf("%s: %s: bad iterations", path, name)
		}
		if raw, ok := b["states/op"]; ok {
			if err := json.Unmarshal(raw, &r.states); err != nil {
				return nil, "", fmt.Errorf("%s: %s: bad states/op", path, name)
			}
			r.hasStates = true
		}
		if raw, ok := b["allocs/op"]; ok {
			if err := json.Unmarshal(raw, &r.allocs); err != nil {
				return nil, "", fmt.Errorf("%s: %s: bad allocs/op", path, name)
			}
			r.hasAllocs = true
		}
		out[name] = r
	}
	return out, s.Label + "@" + s.Commit, nil
}

func main() {
	baseline := flag.String("baseline", "", "committed baseline snapshot JSON")
	current := flag.String("current", "", "freshly measured snapshot JSON")
	tolerance := flag.Float64("tolerance", 20, "allowed allocs/op regression in percent")
	flag.Parse()
	if *baseline == "" || *current == "" {
		fmt.Fprintln(os.Stderr, "perfgate: -baseline and -current are both required")
		os.Exit(2)
	}

	base, baseID, err := load(*baseline)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfgate:", err)
		os.Exit(2)
	}
	cur, curID, err := load(*current)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfgate:", err)
		os.Exit(2)
	}

	var names []string
	for name := range cur {
		if _, ok := base[name]; ok {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		fmt.Fprintf(os.Stderr, "perfgate: no common benchmarks between %s and %s — refusing to pass an empty comparison\n",
			*baseline, *current)
		os.Exit(2)
	}
	sort.Strings(names)
	mixed := false
	for _, name := range names {
		if b, c := base[name], cur[name]; b.iters != c.iters {
			fmt.Fprintf(os.Stderr, "perfgate: %s ran %v iterations in %s but %v in %s — per-op allocations are only comparable at equal counts\n",
				name, b.iters, *baseline, c.iters, *current)
			mixed = true
		}
	}
	if mixed {
		os.Exit(2)
	}

	failures := 0
	for _, name := range names {
		b, c := base[name], cur[name]
		if b.hasStates && c.hasStates && b.states != c.states {
			fmt.Printf("FAIL %s: states/op %v -> %v (state space drifted; the search is deterministic, so this is a semantics change, not noise)\n",
				name, b.states, c.states)
			failures++
			continue
		}
		if b.hasAllocs && c.hasAllocs && b.allocs > 0 {
			delta := (c.allocs - b.allocs) / b.allocs * 100
			if delta > *tolerance {
				fmt.Printf("FAIL %s: allocs/op %v -> %v (+%.1f%% > %.0f%% tolerance)\n",
					name, b.allocs, c.allocs, delta, *tolerance)
				failures++
				continue
			}
			fmt.Printf("ok   %s: allocs/op %v -> %v (%+.1f%%)\n", name, b.allocs, c.allocs, delta)
			continue
		}
		fmt.Printf("ok   %s\n", name)
	}
	fmt.Printf("perfgate: %d benchmarks compared (%s vs %s), %d failing\n",
		len(names), baseID, curID, failures)
	if failures > 0 {
		os.Exit(1)
	}
}
