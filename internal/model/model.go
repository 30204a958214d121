// Package model defines the pluggable memory-model interface the
// explorer is generic over. The paper's interpreted semantics (§3.3)
// couples the uninterpreted command language of internal/lang with an
// event semantics through a small set of combination rules, precisely
// so that different memory models can be swapped in under the same
// program semantics. This package is that seam made explicit: a model
// is a factory for configurations, and a configuration knows how to
// identify itself canonically and whether its memory steps can close
// cycles (the one model-dependent input of the partial-order
// reduction); expansion is typed per backend.
//
// Two backends implement the interface: internal/core (the paper's
// release-acquire RAR fragment of C11) and internal/sc (sequential
// consistency, a single global store — the classic strongest model).
// internal/model/backends names them for the frontends, and
// internal/explore runs one engine over either. Contrasting the two
// on the same program isolates exactly the weak-memory behaviours:
// outcomes reachable under RAR but not under SC (store buffering,
// message passing with relaxed accesses, IRIW disagreement, …).
package model

import (
	"repro/internal/event"
	"repro/internal/fingerprint"
	"repro/internal/lang"
)

// Config is one configuration (P, σ) of some memory model: a residual
// program paired with a model-specific memory state. Configurations
// are immutable values; each backend's concrete configuration type
// (core.Config, sc.Config) carries its own typed successor methods
// (AppendStepChoices, Build, AppendStepSuccessors), which
// internal/explore instantiates its engine over, so no method here
// mentions successors and the successor path never boxes. The
// interface is the frontend seam for dispatch, traces, properties and
// panic repro snapshots. All methods must be safe for concurrent use (the engine
// calls them from multiple workers on shared configurations).
type Config interface {
	// Program returns the residual program. The explorer's
	// partial-order reduction plans over the program alone (enabled
	// steps, label visibility, static footprints, and the commutation
	// oracle lang.StepsCommute, which is sound for every backend), so
	// the plan is model-independent except for StepsAcyclic below.
	Program() lang.Prog

	// Progress is a monotone measure of how far the configuration is
	// from the initial one, in the units Options.MaxEvents bounds.
	// The RAR backend counts events (each loop iteration appends read
	// events, so exploration must be cut); an SC configuration is just
	// (program, store) — a finite space — so the SC backend returns 0
	// and is bounded by MaxConfigs alone.
	Progress() int

	// Terminated reports whether every thread has terminated.
	Terminated() bool

	// Fingerprint is the canonical 128-bit identity the engine
	// deduplicates by: equal futures must imply equal fingerprints up
	// to the interleaving that built the configuration.
	Fingerprint() fingerprint.FP

	// Key is the exact canonical string behind Fingerprint — the slow
	// path the engine's collision-checking debug mode audits against.
	Key() string

	// StepsAcyclic reports whether non-silent transitions can never
	// revisit a configuration. The RAR backend returns true (every
	// memory step appends an event, so the measure Progress strictly
	// grows); the SC backend returns false (a spin loop re-reads the
	// same store and closes a cycle). When false, the partial-order
	// reduction applies an extra loop-freedom guard before reducing
	// to a memory-step singleton — otherwise the singleton thread
	// could cycle solo and postpone every other thread forever (the
	// ignoring problem, which the RAR backend only exhibits on
	// all-silent cycles).
	StepsAcyclic() bool

	// AuditIncremental recomputes the configuration's incrementally
	// maintained derived structures from first principles and returns
	// one description per disagreement (nil when everything agrees,
	// or when the model maintains nothing incrementally). Drives the
	// engine's CheckIncremental debug mode.
	AuditIncremental() []string

	// Summarise renders the final values of the observed variables as
	// a canonical outcome key ("a=1;b=0;"). The format is shared by
	// every backend so outcome sets are comparable across models —
	// the basis of differential model checking.
	Summarise(observe []event.Var) string

	// AppendSnapshot appends a self-contained binary serialization of
	// the configuration to buf and returns the extended slice. The
	// blob starts with a backend tag and version byte and must restore
	// (via the owning Model.Restore) to a configuration with the same
	// Key and Fingerprint, which the backends' FuzzRestore targets
	// check. The explorer stores it as PanicRecord.Snapshot, the repro
	// of a configuration whose expansion panicked. Trace-only
	// decoration (e.g. the label of the producing transition) need not
	// survive.
	AppendSnapshot(buf []byte) []byte

	// DeltaLabel renders the observable difference from prev — the
	// label of the transition prev → c — for trace output ("τ" for a
	// silent step).
	DeltaLabel(prev Config) string
}

// Choice is one memory-model choice of one enabled program step — one
// successor, described instead of built. A backend's AppendStepChoices
// enumerates the choices of a step with their predicted fingerprints,
// and its Build turns one choice into the successor configuration, so
// the engine can look a successor up in its seen-set before paying
// for it. The values are small and self-contained: everything Build
// needs beyond the parent configuration and the step is here.
type Choice struct {
	// FP is the successor's predicted Fingerprint.
	FP fingerprint.FP
	// Res is the successor's program: the parent's interned program
	// node stepped by the choice's thread (lang.Node.Next).
	Res *lang.Node
	// W is the observed write (RAR memory steps; unused otherwise).
	// The face of a CAS follows from it: the update face when the
	// write's value is the expected one, the failing read otherwise.
	W event.Tag
	// Progress is the successor's Progress.
	Progress int
}

// Model is a named memory-model backend: a configuration factory.
type Model interface {
	// Name is the backend's flag-friendly identifier ("rar", "sc").
	Name() string
	// New pairs a program with an initial memory valuation.
	New(p lang.Prog, vars map[event.Var]event.Val) Config
	// Restore inverts Config.AppendSnapshot: it rebuilds the
	// configuration a snapshot blob serialises. The whole blob must be
	// consumed; a blob produced by a different backend, a different
	// format version, or corrupted in transit is an error.
	Restore(data []byte) (Config, error)
}
