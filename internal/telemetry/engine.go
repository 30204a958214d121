package telemetry

// The engine metrics, fed by the exploration engine and sampled by the
// command line for progress lines and final summaries. The constants
// below index the registry's storage, and the name tables give each
// its snake_case name.

// Engine counters.
const (
	// EngineExpansions counts configurations expanded (claims that
	// reached the successor loop).
	EngineExpansions Counter = iota
	// EngineSuccessors counts successor choices enumerated, including
	// ones later deduplicated or suppressed without being built.
	EngineSuccessors
	// EngineAdmitted counts distinct configurations admitted to the
	// seen set (== Result.Explored).
	EngineAdmitted
	// EngineTerminated counts admitted configurations with every
	// thread terminated (== Result.Terminated).
	EngineTerminated
	// EngineDedupHits counts successors that deduplicated against the
	// fingerprint seen set.
	EngineDedupHits
	// EngineRequeues counts re-queues caused by depth or sleep-mask
	// relaxation of an already-expanded entry.
	EngineRequeues
	// EnginePORPruned counts enabled program steps the partial-order
	// reduction skipped (persistent-set exclusion or sleep set).
	EnginePORPruned
	// EngineBoundSuppressed counts successors suppressed by the
	// progress bound (memory steps at the bound).
	EngineBoundSuppressed
	// EnginePoolClaims counts items workers pulled from the work pool
	// (their own deque or another's).
	EnginePoolClaims
	// EnginePoolSteals counts items a worker took from another
	// worker's deque.
	EnginePoolSteals
	// EnginePoolWaitNS counts nanoseconds workers spent parked with
	// every deque empty while work was in flight elsewhere.
	EnginePoolWaitNS
	// EngineStaleClaims counts pool items that were already expanded
	// at their best depth/sleep when claimed (stale re-queues).
	EngineStaleClaims
	// EnginePanics counts worker panics isolated into PanicRecords.
	EnginePanics

	numEngineCounters // keep last
)

// Engine gauges.
const (
	// EngineGaugeFrontier is the live work-pool pending count (queued
	// plus in-flight items).
	EngineGaugeFrontier Gauge = iota
	// EngineGaugeDepth is the maximum depth admitted so far.
	EngineGaugeDepth
	// EngineGaugeFrontierPeak is the largest value the frontier gauge
	// has reached.
	EngineGaugeFrontierPeak
	// EngineGaugeSeenBytes is the size of the seen-set's slot arrays
	// across all shards, set when a search finishes.
	EngineGaugeSeenBytes

	numEngineGauges // keep last
)

var engineCounterNames = [numEngineCounters]string{
	EngineExpansions:      "expansions",
	EngineSuccessors:      "successors",
	EngineAdmitted:        "states_admitted",
	EngineTerminated:      "states_terminated",
	EngineDedupHits:       "dedup_hits",
	EngineRequeues:        "requeues",
	EnginePORPruned:       "por_pruned_steps",
	EngineBoundSuppressed: "bound_suppressed",
	EnginePoolClaims:      "pool_claims",
	EnginePoolSteals:      "pool_steals",
	EnginePoolWaitNS:      "pool_wait_ns",
	EngineStaleClaims:     "stale_claims",
	EnginePanics:          "panics_isolated",
}

var engineGaugeNames = [numEngineGauges]string{
	EngineGaugeFrontier:     "frontier",
	EngineGaugeDepth:        "max_depth",
	EngineGaugeFrontierPeak: "frontier_peak",
	EngineGaugeSeenBytes:    "seen_bytes",
}

// NewEngineRegistry builds a registry of the engine counters and
// gauges — the value to hand to explore.Options.Metrics.
func NewEngineRegistry() *Registry { return new(Registry) }
