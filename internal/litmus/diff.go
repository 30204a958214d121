package litmus

// Differential model checking: run the same test under the RAR and
// the SC backend and compare the reachable outcome sets. Because every
// backend renders outcomes through the shared model.Config.Summarise
// format, the sets are directly comparable; the difference RAR \ SC is
// exactly the test's weak behaviours (store buffering, the stale read
// of relaxed message passing, IRIW disagreement, …), and SC \ RAR
// must always be empty — SC refines RAR, so an SC-only outcome over a
// complete RAR search is a bug in one of the backends, not a property
// of the program.

import (
	"sort"

	"repro/internal/explore"
	"repro/internal/model"
)

// Comparison is one test run under the RAR and the SC backend.
type Comparison struct {
	// RA and SC are the two runs, with their outcome sets and
	// per-model verdicts.
	RA, SC Report
	// RAOnly are the weak behaviours: outcomes reachable under RAR but
	// not under SC. SCOnly are outcomes reachable under SC but not
	// under RAR. Both are sorted.
	RAOnly, SCOnly []string
}

// Compare runs the test under ra and then sc — the RAR and the SC
// backend — and compares the outcome sets. opts applies to both runs.
func (t *Test) Compare(ra, sc model.Model, opts explore.Options) Comparison {
	c := Comparison{RA: t.RunModel(ra, opts), SC: t.RunModel(sc, opts)}
	c.RAOnly = missing(c.RA.Outcomes, c.SC.Outcomes)
	c.SCOnly = missing(c.SC.Outcomes, c.RA.Outcomes)
	return c
}

// Differ reports whether the outcome sets differ.
func (c Comparison) Differ() bool { return len(c.RAOnly) > 0 || len(c.SCOnly) > 0 }

// RefinementBroken reports a breach of SC ⊆ RA: an outcome reachable
// under SC is missing from a complete RAR search. A truncated RAR
// search leaves its outcome set a prefix, so an SC-only outcome is
// then an artefact of the bound; a cut SC search only loses outcomes,
// so an SC-only outcome it did reach is still a breach.
func (c Comparison) RefinementBroken() bool { return len(c.SCOnly) > 0 && !c.RA.Truncated }

// missing lists, sorted, the outcomes of a that b lacks.
func missing(a, b map[string]bool) []string {
	var only []string
	for k := range a {
		if !b[k] {
			only = append(only, k)
		}
	}
	sort.Strings(only)
	return only
}
