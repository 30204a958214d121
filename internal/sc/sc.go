// Package sc is the sequentially consistent backend of the pluggable
// memory-model interface (internal/model) — the paper's §3.3 defines
// the combination rules generically over an event semantics precisely
// so different models can be swapped in, and SC (a single global
// store) is the classic strongest instance. The same engine
// (internal/explore) that checks the RAR semantics of internal/core
// runs unchanged over this package; contrasting the two on the same
// programs isolates the weak-memory behaviours: outcomes reachable
// under RAR but not under sc are exactly the "weak" outcomes (store
// buffering, message passing with relaxed accesses, IRIW
// disagreement, …).
//
// An SC configuration is (P, store): no event graph, no per-thread
// views. Reads are deterministic (the current store value), but the
// state space is finite only if the program stores finitely many
// values: a counter loop reaches a new store each iteration. Progress
// is constantly zero, so MaxConfigs alone bounds exploration, and
// such a search ends BOUNDED at StopMaxConfigs. Annotations
// (release/acquire/non-atomic) are irrelevant under SC.
package sc

import (
	"fmt"
	"sort"

	"repro/internal/event"
	"repro/internal/fingerprint"
	"repro/internal/lang"
	"repro/internal/model"
)

// Model is the SC backend behind the model.Model interface.
var Model model.Model = scModel{}

type scModel struct{}

func (scModel) Name() string { return "sc" }

func (scModel) New(p lang.Prog, vars map[event.Var]event.Val) model.Config {
	return NewConfig(p, vars)
}

// State is an SC memory: one global store mapping variables to values.
// States are immutable once built (write returns a copy) and carry an
// eagerly maintained commutative multiset hash of their entries, so a
// configuration fingerprint costs O(1) in the store size. The zero
// value is unusable; use Init.
type State struct {
	store map[event.Var]event.Val
	acc   fingerprint.Acc // multiset hash over (var, val) entries

	// wx/wv record the write that produced this state (wrote false
	// for Init). Trace labelling only — two states differing solely
	// here deliberately share a fingerprint, and a same-value
	// overwrite leaves the store equal to the parent's, so the label
	// cannot be recovered by diffing entries.
	wx    event.Var
	wv    event.Val
	wrote bool
}

func entryItem(x event.Var, v event.Val) fingerprint.FP {
	h := fingerprint.NewHasher()
	h.String(string(x))
	h.Word(uint64(v))
	return h.Sum()
}

// Init returns the store with the given initial values.
func Init(vars map[event.Var]event.Val) *State {
	s := &State{store: make(map[event.Var]event.Val, len(vars))}
	for x, v := range vars {
		s.store[x] = v
		s.acc.Add(entryItem(x, v))
	}
	return s
}

// Read returns the current value of x.
func (s *State) Read(x event.Var) (event.Val, bool) {
	v, ok := s.store[x]
	return v, ok
}

// write returns a copy of s with x set to v.
func (s *State) write(x event.Var, v event.Val) *State {
	out := &State{
		store: make(map[event.Var]event.Val, len(s.store)+1),
		wx:    x, wv: v, wrote: true,
	}
	for k, val := range s.store {
		out.store[k] = val
	}
	out.store[x] = v
	out.acc, _ = s.writeAcc(x, v)
	return out
}

// writeAcc returns the entry hash and entry count of the store s would
// become by writing v to x — what write maintains and what the
// successor enumerator predicts from, without copying the store. The
// multiset hash is additive per lane, so replacing an entry is one
// subtraction and one addition.
func (s *State) writeAcc(x event.Var, v event.Val) (fingerprint.Acc, int) {
	acc, n := s.acc, len(s.store)
	if old, ok := s.store[x]; ok {
		it := entryItem(x, old)
		acc.Hi -= it.Hi
		acc.Lo -= it.Lo
	} else {
		n++
	}
	acc.Add(entryItem(x, v))
	return acc, n
}

// Signature renders the store canonically.
func (s *State) Signature() string {
	keys := make([]string, 0, len(s.store))
	for x := range s.store {
		keys = append(keys, string(x))
	}
	sort.Strings(keys)
	var b []byte
	for _, x := range keys {
		b = event.AppendOutcome(b, event.Var(x), s.store[event.Var(x)])
	}
	return string(b)
}

// Config is a configuration (P, store) over the SC model. The program
// is carried as its node in an intern table (lang.Table).
type Config struct {
	node *lang.Node
	S    *State
}

var _ model.Config = Config{}

// NewConfig pairs a program with an initial SC store. It interns p
// into a fresh table, which the configuration's successors share.
func NewConfig(p lang.Prog, vars map[event.Var]event.Val) Config {
	return Config{node: lang.NewTable().Intern(p), S: Init(vars)}
}

// Node returns the configuration's interned program.
func (c Config) Node() *lang.Node { return c.node }

// Program returns the residual program. It is shared by every
// configuration carrying the same interned node and must not be
// modified.
func (c Config) Program() lang.Prog { return c.node.Prog() }

// Progress is constantly zero: an SC configuration carries no growing
// event set, so exploration is bounded by MaxConfigs alone (see the
// package comment for when the space is finite).
func (c Config) Progress() int { return 0 }

// Key identifies the configuration exactly, for deduplication audits.
// Like core.Config.Key, its program part is the interned node's
// prefix-free binary signature, the program identity Fingerprint
// hashes.
func (c Config) Key() string { return c.node.Sig() + "\x00" + c.S.Signature() }

// Fingerprint returns a 128-bit identity of the configuration: the
// store's multiset hash combined with the binary program signature.
// Equal keys always have equal fingerprints; distinct keys collide
// only with 128-bit hash probability (auditable via the engine's
// collision-check mode).
func (c Config) Fingerprint() fingerprint.FP {
	return c.node.Fingerprint(fingerprint.Finalize(c.S.acc, len(c.S.store)))
}

// Terminated reports whether every thread has terminated.
func (c Config) Terminated() bool { return c.node.Terminated() }

// AppendStepChoices appends the choices of one program step — at most
// one under SC (none when a read's variable is uninitialised: stuck).
// Reads are deterministic (the global store), writes update it, an
// update atomically reads and writes, and a CAS has exactly one face:
// the store either holds the expected value (atomic read-write) or it
// does not (plain read). The choice's fingerprint is predicted from
// the store-hash delta of the write, if any (State.writeAcc), so
// nothing is built.
func (c Config) AppendStepChoices(out []model.Choice, ps lang.ProgStep) []model.Choice {
	t, s := ps.T, ps.S
	acc, n := c.S.acc, len(c.S.store)
	var res *lang.Node
	switch s.Kind {
	case lang.StepSilent:
		res = c.node.Next(t, 0)
	case lang.StepWrite:
		res = c.node.Next(t, 0)
		acc, n = c.S.writeAcc(s.Loc, s.WVal)
	case lang.StepRead, lang.StepUpdate, lang.StepCas:
		v, ok := c.S.Read(s.Loc)
		if !ok {
			return out // uninitialised variable: stuck
		}
		res = c.node.Next(t, v)
		if s.Kind == lang.StepUpdate || (s.Kind == lang.StepCas && v == s.Exp) {
			acc, n = c.S.writeAcc(s.Loc, s.WVal)
		}
	}
	return append(out, model.Choice{
		FP:  res.Fingerprint(fingerprint.Finalize(acc, n)),
		Res: res,
	})
}

// Build constructs the successor the choice of step ps describes,
// reusing its program node.
func (c Config) Build(ps lang.ProgStep, ch model.Choice) Config {
	s, ns := ps.S, c.S
	switch s.Kind {
	case lang.StepWrite, lang.StepUpdate:
		ns = c.S.write(s.Loc, s.WVal)
	case lang.StepCas:
		if v, _ := c.S.Read(s.Loc); v == s.Exp {
			ns = c.S.write(s.Loc, s.WVal)
		}
	}
	return Config{node: ch.Res, S: ns}
}

// AppendStepSuccessors builds the choice of one program step, if any,
// appending the successor to out. This is the explorer-independent
// successor construction; a caller wanting every successor loops it
// over Node().Steps().
func (c Config) AppendStepSuccessors(out []Config, ps lang.ProgStep) []Config {
	var buf [1]model.Choice
	for _, ch := range c.AppendStepChoices(buf[:0], ps) {
		out = append(out, c.Build(ps, ch))
	}
	return out
}

// StepsAcyclic: an SC configuration is just (program, store), so a
// spin loop re-reading an unchanged store revisits configurations —
// memory steps can close cycles, and the partial-order reduction must
// guard its memory-step singletons against solo cycling.
func (c Config) StepsAcyclic() bool { return false }

// AuditIncremental cross-checks the eagerly maintained store hash
// against a from-scratch recomputation (the SC analogue of the RAR
// backend's derived-order audit), the program node's memo against the
// program alone (lang.Node.Audit), and the fingerprint against the
// serialised program.
func (c Config) AuditIncremental() []string {
	var fresh fingerprint.Acc
	for x, v := range c.S.store {
		fresh.Add(entryItem(x, v))
	}
	var bad []string
	if fresh != c.S.acc {
		bad = append(bad, fmt.Sprintf("store hash drifted: maintained=%x/%x fresh=%x/%x",
			c.S.acc.Hi, c.S.acc.Lo, fresh.Hi, fresh.Lo))
	}
	bad = append(bad, c.node.Audit()...)
	state := fingerprint.Finalize(c.S.acc, len(c.S.store))
	if got, want := c.Fingerprint(), lang.ConfigFingerprint(state, c.Program()); got != want {
		bad = append(bad, fmt.Sprintf("fingerprint %x differs from the serialised program's %x", got, want))
	}
	return bad
}

// DeltaLabel renders the write the transition prev → c performed, or
// τ when the store is untouched (silent steps and reads). Silent and
// read successors share the parent's *State, so a fresh state always
// carries its producing write — including a same-value overwrite,
// which a store diff could not see.
func (c Config) DeltaLabel(prev model.Config) string {
	p, ok := prev.(Config)
	if !ok || c.S == p.S || !c.S.wrote {
		return "τ"
	}
	return fmt.Sprintf("wr(%s,%d)", c.S.wx, c.S.wv)
}

// Summarise renders the store values of the observed variables in the
// shared cross-model outcome format.
func (c Config) Summarise(observe []event.Var) string {
	var b []byte
	for _, x := range observe {
		v, ok := c.S.Read(x)
		if !ok {
			continue
		}
		b = event.AppendOutcome(b, x, v)
	}
	return string(b)
}
