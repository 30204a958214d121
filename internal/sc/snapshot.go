package sc

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/event"
	"repro/internal/lang"
	"repro/internal/model"
)

// Snapshots are the panic repro format: the explorer stores one per
// isolated worker panic as PanicRecord.Snapshot, and Model.Restore
// rebuilds the offending configuration from it. An SC
// configuration is just (program, store), so the serialization is the
// path of lang steps from the search's root program to the residual
// program (lang.Node.AppendPath) followed by the store entries in
// sorted variable order. The store keeps no read history, so the path
// is what lets the residual program be rebuilt. The trace-only label
// of the producing write (wx/wv) deliberately does not survive — it is
// excluded from the fingerprint for the same reason (see State), so a
// restored configuration is fingerprint-identical to the original.

const (
	snapshotTag     byte = 'S'
	snapshotVersion byte = 2
)

// AppendSnapshot appends a serialization of the configuration that
// Restore rebuilds given the root program.
func (c Config) AppendSnapshot(buf []byte) []byte {
	buf = append(buf, snapshotTag, snapshotVersion)
	buf = c.node.AppendPath(buf)
	keys := make([]string, 0, len(c.S.store))
	for x := range c.S.store {
		keys = append(keys, string(x))
	}
	sort.Strings(keys)
	buf = binary.AppendUvarint(buf, uint64(len(keys)))
	for _, x := range keys {
		buf = binary.AppendUvarint(buf, uint64(len(x)))
		buf = append(buf, x...)
		buf = binary.AppendVarint(buf, int64(c.S.store[event.Var(x)]))
	}
	return buf
}

// Restore rebuilds a configuration from a snapshot blob, walking its
// program path from root.
func (scModel) Restore(root lang.Prog, data []byte) (model.Config, error) {
	if len(data) < 2 {
		return nil, fmt.Errorf("sc: snapshot too short")
	}
	if data[0] != snapshotTag {
		return nil, fmt.Errorf("sc: snapshot tag %q is not an SC snapshot", data[0])
	}
	if data[1] != snapshotVersion {
		return nil, fmt.Errorf("sc: unsupported snapshot version %d", data[1])
	}
	node, rest, err := lang.NewTable().Intern(root).Walk(data[2:])
	if err != nil {
		return nil, fmt.Errorf("sc: snapshot program: %w", err)
	}
	n, k := binary.Uvarint(rest)
	if k <= 0 {
		return nil, fmt.Errorf("sc: truncated store size")
	}
	rest = rest[k:]
	// Each entry takes at least two bytes (name length, value); the
	// check also keeps a corrupt count from sizing the map.
	if n > uint64(len(rest))/2 {
		return nil, fmt.Errorf("sc: snapshot stores %d variables in %d bytes", n, len(rest))
	}
	vars := make(map[event.Var]event.Val, n)
	for i := uint64(0); i < n; i++ {
		ln, k := binary.Uvarint(rest)
		if k <= 0 || ln > uint64(len(rest)-k) {
			return nil, fmt.Errorf("sc: truncated store entry %d", i)
		}
		x := string(rest[k : k+int(ln)])
		rest = rest[k+int(ln):]
		v, k := binary.Varint(rest)
		if k <= 0 {
			return nil, fmt.Errorf("sc: truncated value of %s", x)
		}
		rest = rest[k:]
		vars[event.Var(x)] = event.Val(v)
	}
	if uint64(len(vars)) != n {
		return nil, fmt.Errorf("sc: duplicate variable in snapshot store")
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("sc: %d trailing bytes after snapshot", len(rest))
	}
	return Config{node: node, S: Init(vars)}, nil
}
