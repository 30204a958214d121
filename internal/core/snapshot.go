package core

import (
	"encoding/binary"
	"fmt"

	"repro/internal/event"
	"repro/internal/lang"
	"repro/internal/model"
)

// Snapshots are the panic repro format: the explorer stores one per
// isolated worker panic as PanicRecord.Snapshot, and Model.Restore
// rebuilds the offending configuration from it. A RAR
// configuration is serialised as the path of lang steps that leads
// from the search's root program to its residual program
// (lang.Node.AppendPath) plus a replay script for its state: the
// initial valuation followed by every non-initialising event in tag
// order, each recorded as (kind, thread, variable, written value,
// observed write). Restore re-executes the
// script through the same Figure 3 step functions that built the state
// originally — the rules are deterministic given the observed write,
// so replay reconstructs the exact event graph, relations, indexes and
// fingerprint accumulator, with no second serialization format to keep
// in sync with the state representation.
//
// The observed write of each event is recoverable from the state:
//
//   - a read's (or update's) observation is its rf source, which its
//     event record carries;
//   - a write's observation is the write it was inserted immediately
//     after in mo. Later insertions can slot between the two in the
//     final order, but every later insertion has a larger tag, so
//     restricting candidates to mo-predecessors with smaller tags
//     makes the mo-maximal one exactly the original insertion point.

const (
	snapshotTag     byte = 'R'
	snapshotVersion byte = 2
)

func appendSnapString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func snapString(data []byte) (string, []byte, error) {
	n, k := binary.Uvarint(data)
	if k <= 0 || n > uint64(len(data)-k) {
		return "", nil, fmt.Errorf("core: truncated string in snapshot")
	}
	return string(data[k : k+int(n)]), data[k+int(n):], nil
}

func snapUvarint(data []byte) (uint64, []byte, error) {
	v, k := binary.Uvarint(data)
	if k <= 0 {
		return 0, nil, fmt.Errorf("core: truncated uvarint in snapshot")
	}
	return v, data[k:], nil
}

func snapVarint(data []byte) (int64, []byte, error) {
	v, k := binary.Varint(data)
	if k <= 0 {
		return 0, nil, fmt.Errorf("core: truncated varint in snapshot")
	}
	return v, data[k:], nil
}

// observedWrite recovers the write observed by event g (the w of the
// Figure 3 rule that added g) from its record (a read or update) or
// the final mo (a write).
func (s *State) observedWrite(g event.Tag) (event.Tag, error) {
	gi := int(g)
	if e := s.events[gi]; e.isRead() {
		return event.Tag(e.rf), nil
	}
	xs := s.varWrites(int(s.events[gi].x))
	best := -1
	for v := xs.Next(0); v >= 0 && v < gi; v = xs.Next(v + 1) {
		if s.mo.Has(v, gi) && (best < 0 || s.mo.Has(best, v)) {
			best = v
		}
	}
	if best < 0 {
		return 0, fmt.Errorf("core: write %s has no mo predecessor", s.Event(g))
	}
	return event.Tag(best), nil
}

// AppendSnapshot appends a serialization of the configuration that
// Restore rebuilds given the root program (see the file comment for
// the format).
func (c Config) AppendSnapshot(buf []byte) []byte {
	buf = append(buf, snapshotTag, snapshotVersion)
	buf = c.node.AppendPath(buf)
	s := c.S
	nInit := len(s.names)
	buf = binary.AppendUvarint(buf, uint64(nInit))
	for i := 0; i < nInit; i++ {
		e := s.Event(event.Tag(i))
		buf = appendSnapString(buf, string(e.Var()))
		buf = binary.AppendVarint(buf, int64(e.WrVal()))
	}
	buf = binary.AppendUvarint(buf, uint64(len(s.events)-nInit))
	for g := nInit; g < len(s.events); g++ {
		e := s.Event(event.Tag(g))
		buf = append(buf, byte(e.Act.Kind))
		buf = binary.AppendUvarint(buf, uint64(e.TID))
		buf = appendSnapString(buf, string(e.Var()))
		if e.IsWrite() {
			buf = binary.AppendVarint(buf, int64(e.WrVal()))
		}
		w, err := s.observedWrite(event.Tag(g))
		if err != nil {
			// Unreachable on states built by the step functions: every
			// non-initialising write records its observation in mo.
			panic(err)
		}
		buf = binary.AppendUvarint(buf, uint64(w))
	}
	return buf
}

// Restore rebuilds a configuration from a snapshot blob by walking its
// program path from root and replaying its event script through the
// step functions.
func (rarModel) Restore(root lang.Prog, data []byte) (model.Config, error) {
	if len(data) < 2 {
		return nil, fmt.Errorf("core: snapshot too short")
	}
	if data[0] != snapshotTag {
		return nil, fmt.Errorf("core: snapshot tag %q is not a RAR snapshot", data[0])
	}
	if data[1] != snapshotVersion {
		return nil, fmt.Errorf("core: unsupported snapshot version %d", data[1])
	}
	node, rest, err := lang.NewTable().Intern(root).Walk(data[2:])
	if err != nil {
		return nil, fmt.Errorf("core: snapshot program: %w", err)
	}
	nInit, rest, err := snapUvarint(rest)
	if err != nil {
		return nil, err
	}
	// Each entry takes at least two bytes (name length, value); the
	// check also keeps a corrupt count from sizing the map.
	if nInit > uint64(len(rest))/2 {
		return nil, fmt.Errorf("core: snapshot initialises %d variables in %d bytes", nInit, len(rest))
	}
	vars := make(map[event.Var]event.Val, nInit)
	for i := uint64(0); i < nInit; i++ {
		var x string
		var v int64
		if x, rest, err = snapString(rest); err != nil {
			return nil, err
		}
		if v, rest, err = snapVarint(rest); err != nil {
			return nil, err
		}
		vars[event.Var(x)] = event.Val(v)
	}
	if uint64(len(vars)) != nInit {
		return nil, fmt.Errorf("core: duplicate variable in snapshot initialisation")
	}
	s := Init(vars)
	count, rest, err := snapUvarint(rest)
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < count; i++ {
		if len(rest) == 0 {
			return nil, fmt.Errorf("core: truncated event %d", i)
		}
		k := event.Kind(rest[0])
		rest = rest[1:]
		if k > event.WrNA {
			return nil, fmt.Errorf("core: invalid event kind %d", k)
		}
		var tid uint64
		var x string
		if tid, rest, err = snapUvarint(rest); err != nil {
			return nil, err
		}
		if x, rest, err = snapString(rest); err != nil {
			return nil, err
		}
		var wval int64
		if k.IsWrite() {
			if wval, rest, err = snapVarint(rest); err != nil {
				return nil, err
			}
		}
		var w uint64
		if w, rest, err = snapUvarint(rest); err != nil {
			return nil, err
		}
		t := event.Thread(tid)
		if t <= event.InitThread {
			return nil, fmt.Errorf("core: event %d has invalid thread %d", i, tid)
		}
		loc := event.Var(x)
		switch {
		case k.IsUpdate():
			s, _, err = s.StepRMW(t, loc, event.Val(wval), event.Tag(w))
		case k.IsWrite():
			s, _, err = s.StepWriteKind(t, k, loc, event.Val(wval), event.Tag(w))
		default:
			s, _, err = s.StepReadKind(t, k, loc, event.Tag(w))
		}
		if err != nil {
			return nil, fmt.Errorf("core: replaying event %d: %w", i, err)
		}
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("core: %d trailing bytes after snapshot", len(rest))
	}
	return Config{node: node, S: s}, nil
}
