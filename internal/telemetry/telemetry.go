// Package telemetry is the observability layer of the checker: a
// lock-free striped metrics registry the engine feeds (metrics.go), a
// search tracer that writes Chrome trace_event JSON (trace.go), and a
// live progress reporter for the CLIs (progress.go).
//
// Everything is nil-safe by design: a nil *Registry, *Cell, *Tracer or
// *Reporter accepts every method call and does nothing, so the engine
// threads telemetry through its hot path unconditionally and the
// disabled configuration costs only nil checks — no allocations, no
// atomics. The perfgate CI job holds that line.
package telemetry
