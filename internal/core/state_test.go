package core

import (
	"testing"

	"repro/internal/event"
)

func initXYZ() *State {
	return Init(map[event.Var]event.Val{"x": 0, "y": 0, "z": 0})
}

func TestInitShape(t *testing.T) {
	s := initXYZ()
	if s.NumEvents() != 3 {
		t.Fatalf("NumEvents = %d", s.NumEvents())
	}
	// Sorted variable order gives deterministic tags.
	for i, x := range []event.Var{"x", "y", "z"} {
		e := s.Event(event.Tag(i))
		if !e.IsInit() || e.Var() != x || e.WrVal() != 0 {
			t.Fatalf("event %d = %v", i, e)
		}
	}
	// Initial writes are unordered amongst themselves (§3.1).
	if !s.SB().Empty() || !s.RF().Empty() || !s.MO().Empty() {
		t.Fatal("initial relations must be empty")
	}
	if len(s.Initials()) != 3 {
		t.Fatal("Initials wrong")
	}
	g, ok := s.InitialFor("y")
	if !ok || s.Event(g).Var() != "y" {
		t.Fatal("InitialFor wrong")
	}
	if _, ok := s.InitialFor("nope"); ok {
		t.Fatal("InitialFor found missing variable")
	}
}

func TestVarsAndWrites(t *testing.T) {
	s := initXYZ()
	vars := s.Vars()
	if len(vars) != 3 || vars[0] != "x" || vars[2] != "z" {
		t.Fatalf("Vars = %v", vars)
	}
	if s.Writes().Count() != 3 {
		t.Fatal("Writes wrong")
	}
	if len(s.WritesTo("x")) != 1 {
		t.Fatal("WritesTo wrong")
	}
}

func TestAddEventSBShape(t *testing.T) {
	s := initXYZ()
	// Thread 1 writes x twice; a thread-2 event is not sb-related to
	// thread 1's but is after all initials.
	s1, e1, err := s.StepWrite(1, false, "x", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	s2, e2, err := s1.StepWrite(1, false, "x", 2, e1.Tag)
	if err != nil {
		t.Fatal(err)
	}
	s3, e3, err := s2.StepWrite(2, false, "y", 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Initials sb-before every non-initial event.
	for _, ini := range s3.Initials() {
		for _, e := range []event.Event{e1, e2, e3} {
			if !s3.SBHas(ini, e.Tag) {
				t.Fatalf("init %v not sb-before %v", ini, e)
			}
		}
	}
	if !s3.SBHas(e1.Tag, e2.Tag) {
		t.Fatal("program order lost")
	}
	if s3.SBHas(e1.Tag, e3.Tag) || s3.SBHas(e3.Tag, e1.Tag) {
		t.Fatal("cross-thread sb edge")
	}
	if got := s3.ThreadEvents(1); len(got) != 2 || got[0] != e1.Tag {
		t.Fatalf("ThreadEvents = %v", got)
	}
}

func TestStatesAreImmutable(t *testing.T) {
	s := initXYZ()
	sig := s.Signature()
	s1, _, err := s.StepWrite(1, false, "x", 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s.Signature() != sig {
		t.Fatal("StepWrite mutated the source state")
	}
	if s1.Signature() == sig {
		t.Fatal("successor state has unchanged signature")
	}
	if s.NumEvents() != 3 || s1.NumEvents() != 4 {
		t.Fatal("event counts wrong")
	}
}

func TestSignatureDistinguishesMO(t *testing.T) {
	// Two writes to x by different threads can be mo-ordered both
	// ways; the signatures must differ.
	s := initXYZ()
	a, e1, _ := s.StepWrite(1, false, "x", 1, 0)
	b1, _, err := a.StepWrite(2, false, "x", 2, e1.Tag) // after t1's write
	if err != nil {
		t.Fatal(err)
	}
	b2, _, err := a.StepWrite(2, false, "x", 2, 0) // between init and t1's write
	if err != nil {
		t.Fatal(err)
	}
	if b1.Signature() == b2.Signature() {
		t.Fatal("signatures do not distinguish mo placement")
	}
}

func TestStringRendering(t *testing.T) {
	s := initXYZ()
	out := s.String()
	if out == "" || len(out) < 10 {
		t.Fatalf("String too short: %q", out)
	}
}

func TestLast(t *testing.T) {
	s := initXYZ()
	g, ok := s.Last("x")
	if !ok || s.Event(g).WrVal() != 0 {
		t.Fatal("Last of init state wrong")
	}
	s1, e1, _ := s.StepWrite(1, false, "x", 1, g)
	g1, _ := s1.Last("x")
	if g1 != e1.Tag {
		t.Fatal("Last not updated")
	}
	// Insert a write *before* e1: last stays e1.
	s2, _, err := s1.StepWrite(2, false, "x", 9, 0)
	if err != nil {
		t.Fatal(err)
	}
	g2, _ := s2.Last("x")
	if g2 != e1.Tag {
		t.Fatal("Last should remain the mo-maximal write")
	}
	if _, ok := s.Last("w"); ok {
		t.Fatal("Last of unknown variable should fail")
	}
}

func TestUpdateOnly(t *testing.T) {
	s := Init(map[event.Var]event.Val{"turn": 1, "flag": 0})
	if !s.UpdateOnly("turn") || !s.UpdateOnly("flag") {
		t.Fatal("all variables update-only initially")
	}
	g, _ := s.Last("turn")
	s1, e1, err := s.StepRMW(1, "turn", 2, g)
	if err != nil {
		t.Fatal(err)
	}
	if !s1.UpdateOnly("turn") {
		t.Fatal("turn must stay update-only after RMW")
	}
	iflag, _ := s1.InitialFor("flag")
	s2, _, err := s1.StepWrite(2, false, "flag", 1, iflag)
	if err != nil {
		t.Fatal(err)
	}
	if s2.UpdateOnly("flag") {
		t.Fatal("flag written plainly must not be update-only")
	}
	_ = e1
}

// TestIDAccessors checks the id-based reads against the name-based
// ones, and that successors keep their root's variable table while an
// equal initialisation built apart gets its own.
func TestIDAccessors(t *testing.T) {
	s := Init(map[event.Var]event.Val{"turn": 1, "flag": 0})
	g, _ := s.Last("turn")
	s1, _, err := s.StepRMW(1, "turn", 2, g)
	if err != nil {
		t.Fatal(err)
	}
	iflag, _ := s1.InitialFor("flag")
	s2, w, err := s1.StepWrite(2, false, "flag", 7, iflag)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []event.Var{"flag", "turn"} {
		id, ok := s2.VarID(x)
		last, _ := s2.Last(x)
		if !ok || s2.LastOf(id) != last || s2.UpdateOnlyOf(id) != s2.UpdateOnly(x) ||
			s2.WriteValue(last) != s2.Event(last).WrVal() {
			t.Errorf("%s: id-based reads disagree with the name-based ones", x)
		}
	}
	if s2.WriteValue(w.Tag) != 7 {
		t.Fatalf("write value %d", s2.WriteValue(w.Tag))
	}
	if _, ok := s2.VarID("w"); ok {
		t.Fatal("unknown variable has an id")
	}
	other := Init(map[event.Var]event.Val{"turn": 1, "flag": 0})
	if s2.VarTable() != s.VarTable() || other.VarTable() == s.VarTable() {
		t.Fatal("VarTable does not follow the shared variable table")
	}
}
