package core_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/litmus"
)

// identityBound is the event bound of the golden search.
const identityBound = 12

// TestIdentityGolden pins configuration identity across changes to the
// state representation. It visits every configuration a serial,
// unreduced search reaches on the litmus catalog and hashes each one's
// Fingerprint, CanonicalSignature, AppendSnapshot bytes and String
// rendering; the sorted per-configuration digests fold into one digest
// that must equal testdata/identity.golden. Equal fingerprints and
// snapshot bytes are what keep panic repro snapshots and the
// FuzzRestore seeds written by an older build restorable under a newer
// one, so a representation change must pass this test unedited. A
// snapshot names its residual program by the lang steps that first
// reached it from the root (lang.Node.AppendPath), so its bytes also
// pin the serial search's order, but not the program's signature
// encoding. When the digest legitimately changes (a deliberate
// fingerprint or snapshot format change, which also bumps the snapshot
// version), the failure message prints the new value.
func TestIdentityGolden(t *testing.T) {
	var digests [][sha256.Size]byte
	configs := 0
	for _, lt := range litmus.Suite() {
		res := explore.Run(core.NewConfig(lt.Prog, lt.Init), explore.Options{
			MaxEvents: identityBound,
			Workers:   1,
			TypedProperty: func(c core.Config) bool {
				h := sha256.New()
				fp := c.Fingerprint()
				h.Write(binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, fp.Hi), fp.Lo))
				h.Write([]byte(c.S.CanonicalSignature()))
				h.Write(c.AppendSnapshot(nil))
				h.Write([]byte(c.S.String()))
				var d [sha256.Size]byte
				h.Sum(d[:0])
				digests = append(digests, d)
				return true
			},
		})
		if res.Violation != nil {
			t.Fatalf("%s: unexpected violation", lt.Name)
		}
		configs += res.Explored
	}
	if configs != len(digests) {
		t.Fatalf("property saw %d configurations, search explored %d", len(digests), configs)
	}
	sort.Slice(digests, func(i, j int) bool { return bytes.Compare(digests[i][:], digests[j][:]) < 0 })
	all := sha256.New()
	for _, d := range digests {
		all.Write(d[:])
	}
	got := hex.EncodeToString(all.Sum(nil))

	want, err := os.ReadFile("testdata/identity.golden")
	if err != nil {
		t.Fatal(err)
	}
	if w := strings.TrimSpace(string(want)); got != w {
		t.Fatalf("identity digest over %d configurations changed:\n got %s\nwant %s", configs, got, w)
	}
}
