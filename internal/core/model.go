package core

import (
	"fmt"

	"repro/internal/event"
	"repro/internal/lang"
	"repro/internal/model"
)

// This file plugs the RAR semantics into the pluggable memory-model
// seam (internal/model): Config implements model.Config, and Model is
// the backend the frontends select with -model rar. The explorer
// instantiates its engine at Config and drives it through the typed
// AppendStepChoices and Build (interp.go); the axiomatic cross-checks
// and the proof layer use Successors and the State accessors directly.

// Model is the RAR backend: the paper's release-acquire fragment of
// C11 behind the model.Model interface.
var Model model.Model = rarModel{}

type rarModel struct{}

func (rarModel) Name() string { return "rar" }

func (rarModel) New(p lang.Prog, vars map[event.Var]event.Val) model.Config {
	return NewConfig(p, vars)
}

var _ model.Config = Config{}

// Program returns the residual program. It is shared by every
// configuration carrying the same interned node and must not be
// modified.
func (c Config) Program() lang.Prog { return c.node.Prog() }

// Progress counts the events of the state: each transition appends at
// most one, so it is the monotone measure Options.MaxEvents bounds
// (the engine subtracts the initial configuration's count).
func (c Config) Progress() int { return c.S.NumEvents() }

// Discard does nothing: a successor nobody keeps is left to the
// garbage collector. It remains only because the benchmark's layer
// probe (perfbench/workloads.go) passes it as its discard hook.
func (c Config) Discard(Config) {}

// StepsAcyclic: every memory step appends an event, so non-silent
// transitions strictly grow Progress and never close a cycle.
func (c Config) StepsAcyclic() bool { return true }

// AuditIncremental recomputes the state's derived orders from scratch
// (see State.AuditIncremental), the program node's memo from the
// program alone (lang.Node.Audit), and the fingerprint from the
// serialised program.
func (c Config) AuditIncremental() []string {
	bad := append(c.S.AuditIncremental(), c.node.Audit()...)
	if got, want := c.Fingerprint(), lang.ConfigFingerprint(c.S.Fingerprint(), c.Program()); got != want {
		bad = append(bad, fmt.Sprintf("fingerprint %x differs from the serialised program's %x", got, want))
	}
	return bad
}

// DeltaLabel renders the event the transition prev → c added, or τ
// for a silent step.
func (c Config) DeltaLabel(prev model.Config) string {
	p, ok := prev.(Config)
	if !ok || c.S.NumEvents() <= p.S.NumEvents() {
		return "τ"
	}
	return c.S.Event(event.Tag(c.S.NumEvents() - 1)).String()
}

// Summarise renders the final (mo-maximal) values of the observed
// variables in the shared cross-model outcome format.
func (c Config) Summarise(observe []event.Var) string {
	var b []byte
	for _, x := range observe {
		g, ok := c.S.Last(x)
		if !ok {
			continue
		}
		b = event.AppendOutcome(b, x, c.S.Event(g).WrVal())
	}
	return string(b)
}
