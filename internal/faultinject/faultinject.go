// Package faultinject deterministically injects worker faults into
// the exploration engine through its Hooks seam (explore.Options.Hooks)
// — no build tags, no engine knowledge of this package. Three fault
// classes are supported, each gated by a per-configuration hash so the
// injection pattern is a function of the search parameters and the
// seed, not of worker scheduling:
//
//   - panics: model-code panics on the expansion path, exercising the
//     engine's per-configuration isolation and degraded-mode
//     completion;
//   - latency: artificial per-expansion delay, exercising wall-clock
//     budgets under slow progress;
//   - allocation pressure: short-lived heap ballast, exercising the
//     memory budget's MemStats watcher.
//
// Determinism contract: whether a given configuration's expansion is
// faulted depends only on (Seed, fingerprint) — a configuration that
// panics once panics on every (re-)expansion, in any schedule, at any
// worker count. Which configurations are *reached* before the search
// ends still depends on the schedule; counters report what actually
// fired.
package faultinject

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fingerprint"
)

// Spec configures an Injector. Every*-style fields select roughly one
// in N configurations by fingerprint hash; zero disables that fault
// class.
type Spec struct {
	// Seed keys the per-configuration hash; different seeds fault
	// different (deterministic) subsets of the state space.
	Seed uint64
	// PanicEvery, when positive, panics the expansion of about one in
	// PanicEvery configurations.
	PanicEvery int
	// LatencyEvery, when positive, sleeps Latency before the expansion
	// of about one in LatencyEvery configurations.
	LatencyEvery int
	// Latency is the injected delay (default 1ms when LatencyEvery is
	// set).
	Latency time.Duration
	// AllocEvery, when positive, allocates AllocBytes of ballast
	// before the expansion of about one in AllocEvery configurations.
	AllocEvery int
	// AllocBytes is the ballast size per injection (default 1MiB when
	// AllocEvery is set).
	AllocBytes int
}

func (s Spec) latency() time.Duration {
	if s.Latency > 0 {
		return s.Latency
	}
	return time.Millisecond
}

func (s Spec) allocBytes() int {
	if s.AllocBytes > 0 {
		return s.AllocBytes
	}
	return 1 << 20
}

// Panic is the value thrown by an injected panic; the engine's
// PanicRecord renders it via fmt, so repro artifacts identify the
// injection site.
type Panic struct {
	FP    fingerprint.FP
	Depth int
}

func (p Panic) String() string {
	return fmt.Sprintf("faultinject: injected panic at %v (depth %d)", p.FP, p.Depth)
}

// ballastSlots bounds the retained allocation pressure: the ballast
// ring holds at most this many live allocations, so injection raises
// the heap watermark without growing it unboundedly.
const ballastSlots = 64

// Injector implements explore.Hooks (structurally — it imports only
// the fingerprint package). Safe for concurrent use; one Injector
// serves all workers of a run.
type Injector struct {
	spec Spec

	panics atomic.Int64
	sleeps atomic.Int64
	allocs atomic.Int64

	mu      sync.Mutex
	ballast [][]byte
	next    int
}

// New returns an Injector for spec.
func New(spec Spec) *Injector {
	return &Injector{spec: spec}
}

// hash is splitmix64 over the fingerprint and the seed: cheap,
// well-mixed, and schedule-independent.
func (inj *Injector) hash(fp fingerprint.FP) uint64 {
	z := fp.Hi ^ (fp.Lo * 0x9e3779b97f4a7c15) ^ inj.spec.Seed
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// hits selects about one in every configurations, deterministically by
// fingerprint. The three fault classes decorrelate by salting the
// hash.
func (inj *Injector) hits(fp fingerprint.FP, salt uint64, every int) bool {
	if every <= 0 {
		return false
	}
	return (inj.hash(fp)^salt)%uint64(every) == 0
}

// BeforeExpand is the explore.Hooks implementation: it injects the
// configured faults for fp, panicking last so latency and allocation
// injection still fire on a panicking configuration.
func (inj *Injector) BeforeExpand(fp fingerprint.FP, depth int) {
	if inj.hits(fp, 0x51eeb, inj.spec.LatencyEvery) {
		inj.sleeps.Add(1)
		time.Sleep(inj.spec.latency())
	}
	if inj.hits(fp, 0xa110c, inj.spec.AllocEvery) {
		inj.allocs.Add(1)
		b := make([]byte, inj.spec.allocBytes())
		for i := 0; i < len(b); i += 4096 {
			b[i] = 1 // touch the pages so the heap really grows
		}
		inj.mu.Lock()
		if len(inj.ballast) < ballastSlots {
			inj.ballast = append(inj.ballast, b)
		} else {
			inj.ballast[inj.next] = b
			inj.next = (inj.next + 1) % ballastSlots
		}
		inj.mu.Unlock()
	}
	if inj.hits(fp, 0xdead, inj.spec.PanicEvery) {
		inj.panics.Add(1)
		panic(Panic{FP: fp, Depth: depth})
	}
}

// Panics reports how many injected panics fired.
func (inj *Injector) Panics() int64 { return inj.panics.Load() }

// Sleeps reports how many latency injections fired.
func (inj *Injector) Sleeps() int64 { return inj.sleeps.Load() }

// Allocs reports how many allocation injections fired.
func (inj *Injector) Allocs() int64 { return inj.allocs.Load() }

// Release drops the retained ballast.
func (inj *Injector) Release() {
	inj.mu.Lock()
	inj.ballast, inj.next = nil, 0
	inj.mu.Unlock()
}
