package litmus

// Canonical binary identity of a litmus test, built on the prefix-free
// signature encoding of internal/lang. Two Test values with the same
// semantics — same program structure, initial memory, observation
// list and expectation sets — produce identical signatures, and any
// structural difference changes the bytes; the test Name deliberately
// does not participate. The DS tier's round-trip test compares a
// parsed scenario with the built one by it.

import (
	"encoding/binary"
	"sort"

	"repro/internal/event"
	"repro/internal/lang"
)

// AppendSig appends the canonical encoding of the test's semantic
// identity to buf: program, initial memory (sorted by variable),
// observation list (in order — it determines outcome-key layout), the
// per-model expectation sets (as sorted outcome keys) and the event
// bound. The Name is excluded: it labels, it does not identify.
func (t *Test) AppendSig(buf []byte) []byte {
	buf = lang.AppendProgSig(buf, t.Prog)

	vars := make([]event.Var, 0, len(t.Init))
	for x := range t.Init {
		vars = append(vars, x)
	}
	sort.Slice(vars, func(i, j int) bool { return vars[i] < vars[j] })
	buf = binary.AppendUvarint(buf, uint64(len(vars)))
	for _, x := range vars {
		buf = lang.AppendStringSig(buf, string(x))
		buf = binary.AppendVarint(buf, int64(t.Init[x]))
	}

	buf = binary.AppendUvarint(buf, uint64(len(t.Observe)))
	for _, x := range t.Observe {
		buf = lang.AppendStringSig(buf, string(x))
	}

	for _, set := range [][]Outcome{t.Allowed, t.Forbidden, t.SCAllowed, t.SCForbidden} {
		keys := make([]string, len(set))
		for i, o := range set {
			keys[i] = o.key(t.Observe)
		}
		sort.Strings(keys)
		buf = binary.AppendUvarint(buf, uint64(len(keys)))
		for _, k := range keys {
			buf = lang.AppendStringSig(buf, k)
		}
	}

	return binary.AppendVarint(buf, int64(t.MaxEvents))
}
