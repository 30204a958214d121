package core

import (
	"errors"
	"math"
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/event"
	"repro/internal/lang"
)

// hasPointers reports whether values of typ hold a pointer the garbage
// collector must scan.
func hasPointers(typ reflect.Type) bool {
	switch typ.Kind() {
	case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map,
		reflect.Chan, reflect.Func, reflect.Interface, reflect.String:
		return true
	case reflect.Array:
		return typ.Len() > 0 && hasPointers(typ.Elem())
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			if hasPointers(typ.Field(i).Type) {
				return true
			}
		}
	}
	return false
}

// TestRepresentationPointerFree guards the state representation: the
// event records, the index block and the EW/OW memo rows are
// pointer-free, so a successor's copies of them are neither scanned by
// the garbage collector nor written with write barriers, and an event
// record fits in 32 bytes.
func TestRepresentationPointerFree(t *testing.T) {
	var s State
	for name, typ := range map[string]reflect.Type{
		"events":   reflect.TypeOf(s.events).Elem(),
		"idx":      reflect.TypeOf(s.idx).Elem(),
		"memo.obs": reflect.TypeOf(s.memo.obs).Elem(),
	} {
		if hasPointers(typ) {
			t.Errorf("%s element type %s holds pointers", name, typ)
		}
	}
	if f, ok := reflect.TypeOf(evRec{}).FieldByName("rf"); !ok || f.Type.Kind() != reflect.Int32 {
		t.Error("evRec has no int32 rf field")
	}
	if n := unsafe.Sizeof(evRec{}); n > 32 {
		t.Errorf("evRec is %d bytes, want at most 32", n)
	}
	if !hasPointers(reflect.TypeOf(struct{ p *int }{})) || !hasPointers(reflect.TypeOf(struct{ s string }{})) {
		t.Fatal("hasPointers misclassifies")
	}
}

// TestEventIDBounds checks that variable and thread ids at the bound
// of their record type are stored exactly and that ids past it are
// rejected, never truncated.
func TestEventIDBounds(t *testing.T) {
	r := newRec(event.UpdRA, math.MaxInt32, math.MaxInt16, -1, math.MinInt64)
	if r.x != math.MaxInt32 || r.thread() != math.MaxInt16 || r.rval != -1 || r.wval != math.MinInt64 {
		t.Fatalf("record at the id bound stored as %+v", r)
	}
	for _, c := range []struct {
		x int
		t event.Thread
	}{
		{math.MaxInt32 + 1, 1},
		{0, math.MaxInt16 + 1},
		{0, 1<<16 + 1}, // would truncate to thread 1
		{0, 1<<32 + 1},
		{-1 << 32, 1}, // would truncate to variable 0
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("newRec(x=%d, t=%d) accepted", c.x, c.t)
				}
			}()
			newRec(event.WrX, c.x, c.t, 0, 0)
		}()
	}

	s := initXYZ()
	s1, e, err := s.StepWrite(maxThread, false, "y", 7, 1)
	if err != nil {
		t.Fatalf("thread %d rejected: %v", maxThread, err)
	}
	if e.TID != maxThread || s1.Event(e.Tag).TID != maxThread || s1.ThreadEvents(maxThread)[0] != e.Tag {
		t.Fatalf("thread %d stored as %v", maxThread, s1.Event(e.Tag))
	}
	if bad := s1.AuditIncremental(); len(bad) != 0 {
		t.Fatalf("audit: %v", bad)
	}
	for _, tid := range []event.Thread{event.InitThread, -1, maxThread + 1, math.MaxInt32, 1<<32 + 1} {
		if _, _, err := s.StepRead(tid, false, "x", 0); !errors.Is(err, ErrBadThread) {
			t.Errorf("StepRead by thread %d: err %v, want ErrBadThread", tid, err)
		}
	}
}

// TestSuccessorFootprint pins what one memory-step successor costs:
// the State shell, the slab its allocator carves mo and the index
// block from, and a copy of the event list (the parent's events claim
// is taken by the first successor, so every later one copies). The
// shell stays at most 480 bytes.
func TestSuccessorFootprint(t *testing.T) {
	if n := unsafe.Sizeof(State{}); n > 480 {
		t.Errorf("State is %d bytes, want at most 480", n)
	}
	c := NewConfig(lang.Prog{lang.AssignC("x", lang.V(1)), lang.AssignC("y", lang.V(1))},
		map[event.Var]event.Val{"x": 0, "y": 0})
	ps := c.Node().Steps()[0]
	chs := c.AppendStepChoices(nil, ps)
	if len(chs) != 1 || chs[0].Progress != c.Progress()+1 {
		t.Fatalf("want one memory-step choice, got %+v", chs)
	}
	var sink Config
	if n := testing.AllocsPerRun(100, func() { sink = c.Build(ps, chs[0]) }); n != 3 {
		t.Errorf("a memory-step Build makes %v allocations, want 3", n)
	}
	if got, want := sink.Fingerprint(), chs[0].FP; got != want {
		t.Errorf("built fingerprint %v, predicted %v", got, want)
	}
}
