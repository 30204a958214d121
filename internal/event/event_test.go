package event

import (
	"testing"
	"testing/quick"
)

func TestKindPredicates(t *testing.T) {
	cases := []struct {
		k                             Kind
		read, write, update, acq, rel bool
		name                          string
	}{
		{RdX, true, false, false, false, false, "rd"},
		{RdAcq, true, false, false, true, false, "rdA"},
		{WrX, false, true, false, false, false, "wr"},
		{WrRel, false, true, false, false, true, "wrR"},
		{UpdRA, true, true, true, true, true, "updRA"},
	}
	for _, c := range cases {
		if c.k.IsRead() != c.read {
			t.Errorf("%v.IsRead = %v", c.k, c.k.IsRead())
		}
		if c.k.IsWrite() != c.write {
			t.Errorf("%v.IsWrite = %v", c.k, c.k.IsWrite())
		}
		if c.k.IsUpdate() != c.update {
			t.Errorf("%v.IsUpdate = %v", c.k, c.k.IsUpdate())
		}
		if c.k.Acquiring() != c.acq {
			t.Errorf("%v.Acquiring = %v", c.k, c.k.Acquiring())
		}
		if c.k.Releasing() != c.rel {
			t.Errorf("%v.Releasing = %v", c.k, c.k.Releasing())
		}
		if c.k.String() != c.name {
			t.Errorf("%v.String = %q, want %q", c.k, c.k.String(), c.name)
		}
	}
	if Kind(99).String() == "" {
		t.Error("unknown kind should still render")
	}
}

func TestActionConstructors(t *testing.T) {
	a := Rd("x", 5)
	if a.Kind != RdX || a.Var() != "x" || a.RdVal() != 5 {
		t.Fatalf("Rd broken: %+v", a)
	}
	b := RdA("y", 7)
	if b.Kind != RdAcq || b.RdVal() != 7 {
		t.Fatalf("RdA broken: %+v", b)
	}
	c := Wr("x", 3)
	if c.Kind != WrX || c.WrVal() != 3 {
		t.Fatalf("Wr broken: %+v", c)
	}
	d := WrR("z", 9)
	if d.Kind != WrRel || d.WrVal() != 9 {
		t.Fatalf("WrR broken: %+v", d)
	}
	u := Upd("t", 1, 2)
	if u.Kind != UpdRA || u.RdVal() != 1 || u.WrVal() != 2 {
		t.Fatalf("Upd broken: %+v", u)
	}
}

func TestAccessorPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("RdVal of write", func() { Wr("x", 1).RdVal() })
	mustPanic("WrVal of read", func() { Rd("x", 1).WrVal() })
}

func TestActionString(t *testing.T) {
	cases := map[string]Action{
		"rd(x,1)":      Rd("x", 1),
		"rdA(y,2)":     RdA("y", 2),
		"wr(x,3)":      Wr("x", 3),
		"wrR(z,4)":     WrR("z", 4),
		"updRA(t,1,2)": Upd("t", 1, 2),
		"rdNA(d,-5)":   RdN("d", -5),
		"wrNA(d,0)":    WrN("d", 0),
		"act(9)":       {Kind: 9, Loc: "x"},
	}
	for want, a := range cases {
		if got := a.String(); got != want {
			t.Errorf("String = %q, want %q", got, want)
		}
		if got := string(a.AppendTo([]byte("p:"))); got != "p:"+want {
			t.Errorf("AppendTo = %q, want %q", got, "p:"+want)
		}
	}
}

func TestEventLifting(t *testing.T) {
	e := Event{Tag: 3, Act: Upd("turn", 1, 2), TID: 2}
	if e.Var() != "turn" || e.RdVal() != 1 || e.WrVal() != 2 {
		t.Fatal("event lifting broken")
	}
	if !e.IsRead() || !e.IsWrite() || !e.IsUpdate() {
		t.Fatal("update predicates broken")
	}
	if !e.Acquiring() || !e.Releasing() {
		t.Fatal("update must be acquiring and releasing")
	}
	if e.IsInit() {
		t.Fatal("thread-2 event misreported as init")
	}
	iw := Event{Tag: 0, Act: Wr("x", 0), TID: InitThread}
	if !iw.IsInit() {
		t.Fatal("initialising write not detected")
	}
	// A read by thread 0 is not an initialising *write*.
	ir := Event{Tag: 1, Act: Rd("x", 0), TID: InitThread}
	if ir.IsInit() {
		t.Fatal("init-thread read misreported as IWr")
	}
}

func TestAppendOutcome(t *testing.T) {
	b := AppendOutcome(nil, "x", 1)
	b = AppendOutcome(b, "y[0]", -2)
	if got := string(b); got != "x=1;y[0]=-2;" {
		t.Fatalf("AppendOutcome = %q", got)
	}
}

func TestEventString(t *testing.T) {
	e := Event{Tag: 4, Act: Rd("x", 0), TID: 1}
	if got := e.String(); got != "1:rd(x,0)@g4" {
		t.Fatalf("String = %q", got)
	}
}

// Property: updates are exactly the actions that are both reads and
// writes; acquire implies read, release implies write.
func TestQuickKindLattice(t *testing.T) {
	f := func(k uint8) bool {
		kind := Kind(k % 7)
		if kind.IsUpdate() != (kind.IsRead() && kind.IsWrite()) {
			return false
		}
		if kind.Acquiring() && !kind.IsRead() {
			return false
		}
		if kind.Releasing() && !kind.IsWrite() {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
