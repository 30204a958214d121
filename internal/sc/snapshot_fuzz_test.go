package sc_test

import (
	"testing"

	"repro/internal/explore"
	"repro/internal/litmus"
	"repro/internal/sc"
)

// FuzzRestore feeds arbitrary bytes to the SC snapshot decoder,
// against the Peterson root program, so it drives lang stepping along
// arbitrary (thread, value) paths from the root. Corrupt input must
// come back as an error — never a panic or a hang — and anything
// accepted must expand and survive a snapshot round trip.
// The seed corpus is every state of the Peterson search (E13) under
// the SC backend, which ignores the event bound.
func FuzzRestore(f *testing.F) {
	p, vars := litmus.Peterson()
	explore.Run(sc.NewConfig(p, vars), explore.Options{
		MaxEvents: 10,
		Workers:   1,
		TypedProperty: func(c sc.Config) bool {
			f.Add(c.AppendSnapshot(nil))
			return true
		},
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := sc.Model.Restore(p, data)
		if err != nil {
			return
		}
		c := r.(sc.Config)
		for _, ps := range c.Node().Steps() {
			c.AppendStepSuccessors(nil, ps)
		}
		again, err := sc.Model.Restore(p, c.AppendSnapshot(nil))
		if err != nil {
			t.Fatalf("re-snapshot does not restore: %v", err)
		}
		if again.Key() != c.Key() {
			t.Fatalf("snapshot round trip drifted:\n got %q\nwant %q", again.Key(), c.Key())
		}
	})
}
