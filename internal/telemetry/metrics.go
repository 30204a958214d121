package telemetry

// The metrics registry. Counters are striped: each worker owns a
// padded cell of plain atomic counters, so concurrent increments from
// different workers never contend on a cache line, and a snapshot
// sums the stripes. The registry is engine-only: its counters and
// gauges are the Engine* constants of engine.go, so all storage is
// fixed-size arrays — Add and Cell never allocate, which is what lets
// the engine keep its zero-allocs-per-state guarantee with metrics
// enabled.

import "sync/atomic"

// Counter indexes an engine counter (the Engine* counter constants).
type Counter int

// Gauge indexes an engine gauge (the EngineGauge* constants).
type Gauge int

// numStripes is the number of independent counter cells. Workers
// above the stripe count share cells (atomics keep that correct, it
// merely reintroduces some contention).
const numStripes = 16

// cacheLineWords pads each stripe to a cache-line multiple so two
// stripes never share a line (64 bytes = 8 uint64 words).
const cacheLineWords = 8

// cellPad is the padding that rounds a cell up to whole cache lines.
const cellPad = (cacheLineWords - int(numEngineCounters)%cacheLineWords) % cacheLineWords

// Cell is one stripe's counter view. Increments on distinct cells
// are contention-free. The zero of *Cell (nil) discards all adds.
type Cell struct {
	counts [numEngineCounters]atomic.Uint64
	_      [cellPad]uint64
}

// Add increments counter ctr by d. Nil-safe: a nil cell does nothing.
func (c *Cell) Add(ctr Counter, d uint64) {
	if c == nil {
		return
	}
	c.counts[ctr].Add(d)
}

// Get reads this cell's (not the registry-wide) value of ctr.
func (c *Cell) Get(ctr Counter) uint64 {
	if c == nil {
		return 0
	}
	return c.counts[ctr].Load()
}

// Registry is the engine's striped counters plus gauges. Construct
// with NewEngineRegistry; nil is inert (every method is nil-safe).
type Registry struct {
	cells  [numStripes]Cell
	gauges [numEngineGauges]atomic.Int64
}

// Cell returns worker i's counter cell. Workers beyond the stripe
// count share cells. Nil-safe: a nil registry yields a nil cell,
// which discards adds.
func (r *Registry) Cell(i int) *Cell {
	if r == nil {
		return nil
	}
	if i < 0 {
		i = 0
	}
	return &r.cells[i%numStripes]
}

// Add increments ctr by d on stripe 0 — the convenience path for
// cold call sites without a worker identity. Nil-safe.
func (r *Registry) Add(ctr Counter, d uint64) {
	if r == nil {
		return
	}
	r.cells[0].counts[ctr].Add(d)
}

// Total sums ctr across all stripes. Nil-safe (returns 0).
func (r *Registry) Total(ctr Counter) uint64 {
	if r == nil {
		return 0
	}
	var t uint64
	for i := range r.cells {
		t += r.cells[i].counts[ctr].Load()
	}
	return t
}

// SetGauge stores v as gauge g's current value. Nil-safe.
func (r *Registry) SetGauge(g Gauge, v int64) {
	if r == nil {
		return
	}
	r.gauges[g].Store(v)
}

// MaxGauge raises gauge g to v if v is larger (atomic maximum).
// Nil-safe.
func (r *Registry) MaxGauge(g Gauge, v int64) {
	if r == nil {
		return
	}
	for {
		cur := r.gauges[g].Load()
		if v <= cur || r.gauges[g].CompareAndSwap(cur, v) {
			return
		}
	}
}

// GaugeValue reads gauge g. Nil-safe (returns 0).
func (r *Registry) GaugeValue(g Gauge) int64 {
	if r == nil {
		return 0
	}
	return r.gauges[g].Load()
}

// Snapshot is a point-in-time aggregation of a registry: counter
// totals summed across stripes plus gauge values, in the order of the
// Engine* constants.
// Concurrent increments during the snapshot land in either the
// snapshot or the next one — each counter read is atomic. The name
// slices are shared by every snapshot; do not mutate them.
type Snapshot struct {
	CounterNames []string
	CounterVals  []uint64
	GaugeNames   []string
	GaugeVals    []int64
}

// Snapshot aggregates the registry. Nil-safe (returns an empty
// snapshot).
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	s := Snapshot{
		CounterNames: engineCounterNames[:],
		CounterVals:  make([]uint64, numEngineCounters),
		GaugeNames:   engineGaugeNames[:],
		GaugeVals:    make([]int64, numEngineGauges),
	}
	for c := range s.CounterVals {
		s.CounterVals[c] = r.Total(Counter(c))
	}
	for g := range s.GaugeVals {
		s.GaugeVals[g] = r.gauges[g].Load()
	}
	return s
}

// Counter returns the snapshot's value for the named counter (0 if
// absent).
func (s Snapshot) Counter(name string) uint64 {
	for i, n := range s.CounterNames {
		if n == name {
			return s.CounterVals[i]
		}
	}
	return 0
}

// Gauge returns the snapshot's value for the named gauge (0 if
// absent).
func (s Snapshot) Gauge(name string) int64 {
	for i, n := range s.GaugeNames {
		if n == name {
			return s.GaugeVals[i]
		}
	}
	return 0
}
