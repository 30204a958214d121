package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/litmus"
)

// FuzzRestore feeds arbitrary bytes to the RAR snapshot decoder,
// against the Peterson root program. Restore walks the snapshot's
// (thread, value) path from the root, so this drives lang stepping
// along arbitrary paths, and replays every decoded event through the
// Figure 3 step functions, which drives relation growth, the
// incremental closures and the eager indexes on inputs no exploration
// would build. Corrupt
// input must come back as an error — never a panic or a hang — and
// anything accepted must be a sound state: it passes the incremental
// audit, expands, and survives a snapshot round trip. The seed corpus
// is every state of the bound-10 Peterson search (E13).
func FuzzRestore(f *testing.F) {
	p, vars := litmus.Peterson()
	explore.Run(core.NewConfig(p, vars), explore.Options{
		MaxEvents: 10,
		Workers:   1,
		TypedProperty: func(c core.Config) bool {
			f.Add(c.AppendSnapshot(nil))
			return true
		},
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := core.Model.Restore(p, data)
		if err != nil {
			return
		}
		c := r.(core.Config)
		if msgs := c.S.AuditIncremental(); len(msgs) != 0 {
			t.Fatalf("restored state fails the incremental audit: %v", msgs)
		}
		c.Successors()
		again, err := core.Model.Restore(p, c.AppendSnapshot(nil))
		if err != nil {
			t.Fatalf("re-snapshot does not restore: %v", err)
		}
		if again.Key() != c.Key() {
			t.Fatalf("snapshot round trip drifted:\n got %q\nwant %q", again.Key(), c.Key())
		}
	})
}
