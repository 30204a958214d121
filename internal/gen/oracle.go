package gen

// The oracle battery: every generated (or replayed) program is run
// through each cross-check the repository already knows how to make,
// all in-process — no shelling out to the binaries. A nil Failure
// means every oracle passed; the Kind taxonomy is what the shrinker
// preserves and the corpus files record.

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/explore"
	"repro/internal/model"
	"repro/internal/model/backends"
	"repro/internal/parser"
	"repro/internal/telemetry"
)

// Kind classifies an oracle failure.
type Kind string

// Failure kinds, most specific first.
const (
	// FailRoundTrip: the file does not survive parse → print →
	// reparse with an identical program and expectations.
	FailRoundTrip Kind = "roundtrip"
	// FailRefinement: an outcome is reachable under SC but not under
	// RA — SC refines RA, so this is a backend bug by construction.
	FailRefinement Kind = "refinement"
	// FailPOR: the reduced search diverged from the full one
	// (explore.Audit found missing/extra terminated states, unsound
	// reachability, or a verdict flip).
	FailPOR Kind = "por-divergence"
	// FailIncremental: the incrementally maintained derived structures
	// disagreed with their from-scratch recomputation.
	FailIncremental Kind = "incremental-mismatch"
	// FailCollision: two distinct canonical keys shared a 128-bit
	// fingerprint.
	FailCollision Kind = "fingerprint-collision"
	// FailWorkers: the serial and parallel engines disagreed on a
	// completed search.
	FailWorkers Kind = "serial-parallel"
	// FailPanic: some oracle crashed; the stack is in the detail.
	FailPanic Kind = "panic"
)

// Failure is one oracle discrepancy.
type Failure struct {
	Kind   Kind
	Detail string
}

func (f *Failure) String() string { return string(f.Kind) + ": " + f.Detail }

// CheckOpts bounds the oracle explorations.
type CheckOpts struct {
	// MaxEvents bounds the RAR searches (default 18). Fuzzing derives
	// it from Program.Bound so generated programs are never truncated
	// and verdicts are exhaustive.
	MaxEvents int
	// MaxConfigs caps each search (default 1<<15). A program that
	// hits the cap skips the bound-sensitive oracles instead of
	// reporting spurious divergences.
	MaxConfigs int
	// Workers is the parallel width of the audit's unreduced search
	// and of its serial-vs-parallel oracle (default 8).
	Workers int
	// Context, when non-nil, is every oracle exploration's time
	// budget: a deadline cuts each search through the engine's budget
	// machinery, a cancel (the frontend's signal context) stops it at
	// the next admission check. A cut search reports through the audits
	// as budget-cut: the set comparisons are skipped rather than
	// reported as spurious divergences, and the refinement check is
	// relative to what was explored (Report.TruncatedRA).
	Context context.Context
	// Metrics, when non-nil, receives the engine counters of every
	// oracle search; one registry accumulates across the whole fuzzing
	// run, so its progress line measures the campaign, not a program.
	Metrics *telemetry.Registry
	// Tracer, when non-nil, receives the search spans of every oracle
	// exploration.
	Tracer *telemetry.Tracer
}

func (o CheckOpts) withDefaults() CheckOpts {
	o.MaxEvents = defInt(o.MaxEvents, 18)
	o.MaxConfigs = defInt(o.MaxConfigs, 1<<15)
	o.Workers = defInt(o.Workers, 8)
	return o
}

// Report is the result of running the oracle battery on one program.
type Report struct {
	// Failure is the first oracle discrepancy, nil when all passed.
	Failure *Failure
	// Weak lists outcomes reachable under RA but not SC — the
	// program's weak behaviours (not a failure; the interesting case).
	Weak []string
	// ExploredRA and ExploredSC are the differential searches' sizes.
	ExploredRA, ExploredSC int
	// TruncatedRA reports that the RA search hit a bound, making the
	// refinement check (and Weak) relative to it.
	TruncatedRA bool
}

// Check runs the full oracle battery over the file. Any panic inside
// an oracle is caught and reported as FailPanic.
func Check(f *parser.File, opts CheckOpts) (rep Report) {
	opts = opts.withDefaults()
	defer func() {
		if r := recover(); r != nil {
			rep.Failure = &Failure{Kind: FailPanic, Detail: fmt.Sprint(r)}
		}
	}()

	if fail := roundTrip(f); fail != nil {
		rep.Failure = fail
		return rep
	}

	test, err := f.Test()
	if err != nil {
		rep.Failure = &Failure{Kind: FailRoundTrip, Detail: "not runnable: " + err.Error()}
		return rep
	}
	rar, _ := backends.Get("rar")
	sc, _ := backends.Get("sc")
	eopts := explore.Options{
		MaxEvents: opts.MaxEvents, MaxConfigs: opts.MaxConfigs,
		Context: opts.Context,
		Metrics: opts.Metrics, Tracer: opts.Tracer,
	}

	// One self-audit per model: its unreduced search carries the
	// incremental and fingerprint audits and is the reference of the
	// reduced searches (explore.Audit).
	for _, m := range []model.Model{rar, sc} {
		ao := eopts
		ao.Workers = opts.Workers
		if fail := auditFailure(m.Name(), explore.Audit(m.New(test.Prog, test.Init), ao)); fail != nil {
			rep.Failure = fail
			return rep
		}
	}

	// Differential outcome comparison: SC ⊆ RA refinement. Outcome
	// sets are read off terminated configurations, which the reduction
	// preserves.
	eopts.POR = true
	c := test.Compare(rar, sc, eopts)
	rep.Weak = c.RAOnly
	rep.ExploredRA, rep.ExploredSC = c.RA.Explored, c.SC.Explored
	rep.TruncatedRA = c.RA.Truncated
	if c.RefinementBroken() {
		rep.Failure = &Failure{Kind: FailRefinement,
			Detail: "sc-only outcomes: " + strings.Join(c.SCOnly, " ")}
	}
	return rep
}

// auditFailure maps a self-audit's first failing count onto its Kind.
func auditFailure(name string, a explore.AuditReport) *Failure {
	switch {
	case a.Full.ClosureMismatches > 0:
		return &Failure{Kind: FailIncremental,
			Detail: fmt.Sprintf("%s: %d closure mismatches", name, a.Full.ClosureMismatches)}
	case a.Full.FingerprintCollisions > 0:
		return &Failure{Kind: FailCollision,
			Detail: fmt.Sprintf("%s: %d colliding keys", name, a.Full.FingerprintCollisions)}
	case a.POR.Divergences() > 0:
		return &Failure{Kind: FailPOR, Detail: fmt.Sprintf("%s: %s", name, a)}
	case a.Workers.Divergences() > 0:
		return &Failure{Kind: FailWorkers, Detail: fmt.Sprintf("%s: %s", name, a)}
	}
	return nil
}

// roundTrip checks parse∘print identity: the printed file must
// reparse, reach a printing fixed point immediately, and denote the
// same program and expectations.
func roundTrip(f *parser.File) *Failure {
	txt := f.Format()
	f2, err := parser.Parse(f.Name, txt)
	if err != nil {
		return &Failure{Kind: FailRoundTrip, Detail: "printed file does not reparse: " + err.Error()}
	}
	if txt2 := f2.Format(); txt2 != txt {
		return &Failure{Kind: FailRoundTrip, Detail: "printing is not a fixed point"}
	}
	p1, err1 := f.Prog()
	p2, err2 := f2.Prog()
	if (err1 == nil) != (err2 == nil) {
		return &Failure{Kind: FailRoundTrip, Detail: "program validity drifted"}
	}
	if err1 == nil && p1.String() != p2.String() {
		return &Failure{Kind: FailRoundTrip,
			Detail: fmt.Sprintf("program drifted:\n%s\nvs\n%s", p1, p2)}
	}
	if len(f2.Observe) != len(f.Observe) {
		return &Failure{Kind: FailRoundTrip, Detail: "observe clause drifted"}
	}
	return nil
}

// Predicate returns the shrinker predicate that preserves the given
// failure kind under the same oracle options: a candidate is kept
// when the battery still reports a failure of that kind.
func Predicate(kind Kind, opts CheckOpts) func(*parser.File) bool {
	return func(f *parser.File) bool {
		rep := Check(f, opts)
		return rep.Failure != nil && rep.Failure.Kind == kind
	}
}
