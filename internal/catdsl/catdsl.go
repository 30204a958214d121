// Package catdsl evaluates memory-model definitions written in a
// subset of the herd "cat" language against candidate executions —
// the same artefact the paper submits to Memalloy in Appendix E. The
// two model files of the paper (c11_rar.cat, its eco-based coherence
// axioms, and the simplified canonical model) ship as constants and
// are compared for equivalence by the test suite, reproducing the
// paper's "no differences up to size 7" check.
//
// The library's definitions of the two models are the hand-coded
// predicates in internal/axiomatic (Exec.CoherentDef42 and
// Exec.WeakCanonicalConsistent), chosen by measured speed: on the
// Appendix E candidates of the repository benchmark
// (perfbench/trajectory.json, per-layer figures) they cost 5.7 µs and
// 6.0 µs per candidate against 40.4 µs for evaluating both cat models
// here. This package is the cat-text cross-check of those
// predicates, used by its tests and by the benchmark; no command
// depends on it.
//
// Supported syntax:
//
//	let name = expr            relation definition
//	irreflexive expr as name   axiom
//	acyclic expr as name       axiom
//	empty expr as name         axiom
//
// Expressions: base relations po, rf, co, fr, id, loc, ext; event-set
// relations [W], [R], [U], [REL], [ACQ], [IW]; operators | (union),
// & (intersection), \ (difference), ; (composition), ^-1 (converse),
// + (transitive closure), * (reflexive-transitive closure),
// ? (reflexive closure), and parentheses.
package catdsl

import (
	"fmt"
	"strings"

	"repro/internal/axiomatic"
	"repro/internal/relation"
)

// Model is a parsed cat model: named definitions plus axioms, in
// source order.
type Model struct {
	Name   string
	defs   []def
	axioms []axiom
}

type def struct {
	name string
	expr expr
}

type axiomKind uint8

const (
	axIrreflexive axiomKind = iota
	axAcyclic
	axEmpty
)

type axiom struct {
	kind axiomKind
	expr expr
	name string
}

// Axioms lists the axiom names in source order.
func (m *Model) Axioms() []string {
	out := make([]string, len(m.axioms))
	for i, a := range m.axioms {
		out[i] = a.name
	}
	return out
}

// expr is a relational expression tree.
type expr interface{ String() string }

type base struct{ name string }  // po, rf, co, fr, id, loc, ext, or defined name
type evset struct{ name string } // [W], [R], ...
type binop struct {
	op   byte // '|', '&', '\\', ';'
	l, r expr
}
type closure struct {
	op byte // '+', '*', '?'
	e  expr
}
type converse struct{ e expr }

func (b base) String() string     { return b.name }
func (s evset) String() string    { return "[" + s.name + "]" }
func (b binop) String() string    { return fmt.Sprintf("(%s %c %s)", b.l, b.op, b.r) }
func (c closure) String() string  { return fmt.Sprintf("%s%c", c.e, c.op) }
func (c converse) String() string { return c.e.String() + "^-1" }

// Env is the evaluation environment for one execution.
type Env struct {
	x    axiomatic.Exec
	defs map[string]relation.Rel
}

// NewEnv prepares the base relations of the execution.
func NewEnv(x axiomatic.Exec) *Env {
	n := x.N()
	env := &Env{x: x, defs: map[string]relation.Rel{}}

	env.defs["po"] = x.SB.Clone()
	env.defs["rf"] = x.RF.Clone()
	env.defs["co"] = x.MO.Clone()
	env.defs["fr"] = x.FR()
	env.defs["id"] = relation.Identity(n)

	loc := relation.New(n)
	ext := relation.New(n)
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if x.Events[a].Var() == x.Events[b].Var() {
				loc.Add(a, b)
			}
			if x.Events[a].TID != x.Events[b].TID {
				ext.Add(a, b)
			}
		}
	}
	env.defs["loc"] = loc
	env.defs["ext"] = ext
	return env
}

// set returns the identity relation restricted to an event class.
func (e *Env) set(name string) (relation.Rel, error) {
	n := e.x.N()
	out := relation.New(n)
	for i, ev := range e.x.Events {
		ok := false
		switch name {
		case "W":
			ok = ev.IsWrite()
		case "R":
			ok = ev.IsRead()
		case "U":
			ok = ev.IsUpdate()
		case "REL":
			ok = ev.Releasing()
		case "ACQ":
			ok = ev.Acquiring()
		case "IW":
			ok = ev.IsInit()
		default:
			return out, fmt.Errorf("catdsl: unknown event set [%s]", name)
		}
		if ok {
			out.Add(i, i)
		}
	}
	return out, nil
}

// Eval evaluates an expression in the environment.
func (e *Env) Eval(x expr) (relation.Rel, error) {
	switch t := x.(type) {
	case base:
		if r, ok := e.defs[t.name]; ok {
			return r.Clone(), nil
		}
		return relation.Rel{}, fmt.Errorf("catdsl: undefined relation %q", t.name)
	case evset:
		return e.set(t.name)
	case converse:
		r, err := e.Eval(t.e)
		if err != nil {
			return r, err
		}
		return r.Converse(), nil
	case closure:
		r, err := e.Eval(t.e)
		if err != nil {
			return r, err
		}
		switch t.op {
		case '+':
			return r.TransitiveClosure(), nil
		case '*':
			return r.ReflexiveTransitiveClosure(), nil
		case '?':
			return r.ReflexiveClosure(), nil
		}
		return r, fmt.Errorf("catdsl: unknown closure %c", t.op)
	case binop:
		l, err := e.Eval(t.l)
		if err != nil {
			return l, err
		}
		r, err := e.Eval(t.r)
		if err != nil {
			return r, err
		}
		switch t.op {
		case '|':
			l.Union(r)
			return l, nil
		case '&':
			l.Intersect(r)
			return l, nil
		case '\\':
			l.Subtract(r)
			return l, nil
		case ';':
			return relation.Compose(l, r), nil
		}
		return l, fmt.Errorf("catdsl: unknown operator %c", t.op)
	}
	return relation.Rel{}, fmt.Errorf("catdsl: unknown expression %T", x)
}

// Violation names the first axiom an execution fails.
type Violation struct {
	Axiom string
}

func (v *Violation) Error() string { return "catdsl: axiom " + v.Axiom + " violated" }

// Check evaluates the model on an execution, returning nil when every
// axiom holds.
func (m *Model) Check(x axiomatic.Exec) (*Violation, error) {
	env := NewEnv(x)
	for _, d := range m.defs {
		r, err := env.Eval(d.expr)
		if err != nil {
			return nil, err
		}
		env.defs[d.name] = r
	}
	for _, a := range m.axioms {
		r, err := env.Eval(a.expr)
		if err != nil {
			return nil, err
		}
		switch a.kind {
		case axIrreflexive:
			if !r.Irreflexive() {
				return &Violation{Axiom: a.name}, nil
			}
		case axAcyclic:
			if !r.Acyclic() {
				return &Violation{Axiom: a.name}, nil
			}
		case axEmpty:
			if !r.Empty() {
				return &Violation{Axiom: a.name}, nil
			}
		}
	}
	return nil, nil
}

// Consistent reports whether all axioms hold, panicking on evaluation
// errors (models are static constants, so errors are programming
// mistakes).
func (m *Model) Consistent(x axiomatic.Exec) bool {
	v, err := m.Check(x)
	if err != nil {
		panic(err)
	}
	return v == nil
}

// ----- parsing -----

// ParseModel parses a cat model.
func ParseModel(name, src string) (*Model, error) {
	m := &Model{Name: name}
	for ln, rawLine := range strings.Split(src, "\n") {
		line := stripComment(rawLine)
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "let":
			rest := strings.TrimSpace(strings.TrimPrefix(line, "let"))
			eq := strings.Index(rest, "=")
			if eq < 0 {
				return nil, fmt.Errorf("%s:%d: let without =", name, ln+1)
			}
			dname := strings.TrimSpace(rest[:eq])
			ex, err := parseExpr(rest[eq+1:])
			if err != nil {
				return nil, fmt.Errorf("%s:%d: %v", name, ln+1, err)
			}
			m.defs = append(m.defs, def{name: dname, expr: ex})
		case "irreflexive", "acyclic", "empty":
			kind := map[string]axiomKind{
				"irreflexive": axIrreflexive, "acyclic": axAcyclic, "empty": axEmpty,
			}[fields[0]]
			rest := strings.TrimSpace(strings.TrimPrefix(line, fields[0]))
			aname := ""
			if as := strings.LastIndex(rest, " as "); as >= 0 {
				aname = strings.TrimSpace(rest[as+4:])
				rest = rest[:as]
			} else {
				aname = fmt.Sprintf("axiom%d", len(m.axioms))
			}
			ex, err := parseExpr(rest)
			if err != nil {
				return nil, fmt.Errorf("%s:%d: %v", name, ln+1, err)
			}
			m.axioms = append(m.axioms, axiom{kind: kind, expr: ex, name: aname})
		default:
			return nil, fmt.Errorf("%s:%d: unknown directive %q", name, ln+1, fields[0])
		}
	}
	return m, nil
}

func stripComment(line string) string {
	// cat uses (* ... *) comments; support single-line ones plus //.
	for {
		open := strings.Index(line, "(*")
		if open < 0 {
			break
		}
		close := strings.Index(line[open:], "*)")
		if close < 0 {
			line = line[:open]
			break
		}
		line = line[:open] + line[open+close+2:]
	}
	if i := strings.Index(line, "//"); i >= 0 {
		line = line[:i]
	}
	return line
}

// Expression grammar (precedence low to high):
//
//	e  := t (('|' | '\') t)*
//	t  := c ((';' | '&') c)*        — ; and & at one level, left assoc
//	c  := p ('+' | '*' | '?' | '^-1')*
//	p  := name | [SET] | '(' e ')'
type exprParser struct {
	s   string
	pos int
}

func parseExpr(s string) (expr, error) {
	p := &exprParser{s: s}
	e, err := p.parseUnion()
	if err != nil {
		return nil, err
	}
	p.skip()
	if p.pos < len(p.s) {
		return nil, fmt.Errorf("trailing input %q", p.s[p.pos:])
	}
	return e, nil
}

func (p *exprParser) skip() {
	for p.pos < len(p.s) && (p.s[p.pos] == ' ' || p.s[p.pos] == '\t') {
		p.pos++
	}
}

func (p *exprParser) peek() byte {
	p.skip()
	if p.pos >= len(p.s) {
		return 0
	}
	return p.s[p.pos]
}

func (p *exprParser) parseUnion() (expr, error) {
	l, err := p.parseSeq()
	if err != nil {
		return nil, err
	}
	for {
		switch p.peek() {
		case '|':
			p.pos++
			r, err := p.parseSeq()
			if err != nil {
				return nil, err
			}
			l = binop{op: '|', l: l, r: r}
		case '\\':
			p.pos++
			r, err := p.parseSeq()
			if err != nil {
				return nil, err
			}
			l = binop{op: '\\', l: l, r: r}
		default:
			return l, nil
		}
	}
}

func (p *exprParser) parseSeq() (expr, error) {
	l, err := p.parsePostfix()
	if err != nil {
		return nil, err
	}
	for {
		switch p.peek() {
		case ';':
			p.pos++
			r, err := p.parsePostfix()
			if err != nil {
				return nil, err
			}
			l = binop{op: ';', l: l, r: r}
		case '&':
			p.pos++
			r, err := p.parsePostfix()
			if err != nil {
				return nil, err
			}
			l = binop{op: '&', l: l, r: r}
		default:
			return l, nil
		}
	}
}

func (p *exprParser) parsePostfix() (expr, error) {
	e, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for {
		switch p.peek() {
		case '+', '*', '?':
			e = closure{op: p.s[p.pos], e: e}
			p.pos++
		case '^':
			if strings.HasPrefix(p.s[p.pos:], "^-1") {
				p.pos += 3
				e = converse{e: e}
			} else {
				return nil, fmt.Errorf("expected ^-1 at %q", p.s[p.pos:])
			}
		default:
			return e, nil
		}
	}
}

func (p *exprParser) parsePrimary() (expr, error) {
	switch p.peek() {
	case 0:
		return nil, fmt.Errorf("unexpected end of expression")
	case '(':
		p.pos++
		e, err := p.parseUnion()
		if err != nil {
			return nil, err
		}
		if p.peek() != ')' {
			return nil, fmt.Errorf("missing )")
		}
		p.pos++
		return e, nil
	case '[':
		p.pos++
		start := p.pos
		for p.pos < len(p.s) && p.s[p.pos] != ']' {
			p.pos++
		}
		if p.pos >= len(p.s) {
			return nil, fmt.Errorf("missing ]")
		}
		name := strings.TrimSpace(p.s[start:p.pos])
		p.pos++
		return evset{name: name}, nil
	}
	start := p.pos
	for p.pos < len(p.s) {
		c := p.s[p.pos]
		if c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' {
			p.pos++
		} else {
			break
		}
	}
	if p.pos == start {
		return nil, fmt.Errorf("unexpected character %q", p.s[start])
	}
	return base{name: p.s[start:p.pos]}, nil
}
