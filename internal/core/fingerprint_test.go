package core

import (
	"math/rand"
	"testing"

	"repro/internal/event"
	"repro/internal/fingerprint"
	"repro/internal/lang"
)

// The 128-bit fingerprints must refine exactly the equivalence the
// canonical string signatures induce: equal signatures ⇒ equal
// fingerprints (same renaming, same encoding), and distinct signatures
// ⇒ distinct fingerprints at every state this suite can reach (a hash
// collision here would be a 2⁻¹²⁸ event, so any failure indicates an
// encoding bug rather than bad luck).

func TestFingerprintMatchesCanonicalSignature(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	bySig := map[string]fingerprint.FP{}
	byFP := map[fingerprint.FP]string{}
	states := 0
	for trial := 0; trial < 40; trial++ {
		randomWalkCore(t, rng, 12, func(w walkStep) {
			s := w.after
			sig := s.CanonicalSignature()
			fp := s.Fingerprint()
			if prev, ok := bySig[sig]; ok && prev != fp {
				t.Fatalf("one signature, two fingerprints:\n%s", sig)
			}
			if prev, ok := byFP[fp]; ok && prev != sig {
				t.Fatalf("fingerprint collision:\n%s\n%s", prev, sig)
			}
			bySig[sig] = fp
			byFP[fp] = sig
			states++
		})
	}
	if states < 100 {
		t.Fatalf("walked only %d states", states)
	}
}

func TestFingerprintInterleavingInvariance(t *testing.T) {
	// Mirror of TestInvariantCanonicalSignatureStable: commuting two
	// independent writes must not change the fingerprint.
	s := Init(map[event.Var]event.Val{"x": 0, "y": 0})
	ix, _ := s.InitialFor("x")
	iy, _ := s.InitialFor("y")

	a1, _, _ := s.StepWrite(1, false, "x", 1, ix)
	a2, _, _ := a1.StepWrite(2, false, "y", 2, iy)

	b1, _, _ := s.StepWrite(2, false, "y", 2, iy)
	b2, _, _ := b1.StepWrite(1, false, "x", 1, ix)

	if a2.Fingerprint() != b2.Fingerprint() {
		t.Fatal("fingerprints differ across commuting steps")
	}
	// A dependent difference must be visible.
	c2, _, _ := b1.StepWrite(1, false, "x", 3, ix)
	if a2.Fingerprint() == c2.Fingerprint() {
		t.Fatal("fingerprint blind to differing write value")
	}
}

func TestConfigFingerprintMatchesKey(t *testing.T) {
	// Configuration keys pair the residual program with the state;
	// fingerprints must induce the same equivalence over both parts.
	p := lang.Prog{
		lang.SeqC(lang.AssignC("d", lang.V(5)), lang.AssignRelC("f", lang.V(1))),
		lang.SeqC(lang.AssignC("a", lang.XA("f")), lang.AssignC("b", lang.X("d"))),
	}
	cfg := NewConfig(p, map[event.Var]event.Val{"d": 0, "f": 0, "a": 0, "b": 0})
	byKey := map[string]fingerprint.FP{}
	byFP := map[fingerprint.FP]string{}
	var dfs func(Config)
	dfs = func(c Config) {
		k := c.Key()
		fp := c.Fingerprint()
		if prev, seen := byKey[k]; seen {
			if prev != fp {
				t.Fatalf("one key, two fingerprints: %s", k)
			}
			return
		}
		if prev, seen := byFP[fp]; seen && prev != k {
			t.Fatalf("fingerprint collision:\n%s\n%s", prev, k)
		}
		byKey[k] = fp
		byFP[fp] = k
		for _, s := range c.Successors() {
			dfs(s)
		}
	}
	dfs(cfg)
	if len(byKey) < 30 {
		t.Fatalf("visited only %d configurations", len(byKey))
	}
}
