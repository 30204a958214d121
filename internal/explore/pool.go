package explore

// The work pool: one deque per worker. With one worker the deque is a
// strict FIFO, so the serial search is breadth-first and its truncated
// prefix deterministic. With more, each worker pops the successors of
// its own latest expansion first, in the order they were built, so a
// worker descends depth-first and the frontier stays as narrow as the
// search is deep instead of as wide as it is broad. Build order
// matters: a successor built first wins its parent's one-shot tail
// claims (relation.Extend, core's State.tails), so it is the cheapest
// one to expand next. An idle worker steals the oldest item of another
// deque — the shallowest, and so the one with the most work below it.
// A worker parks on the pool's condition only when every deque is
// empty and work is still pending (in flight on another worker).

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/model"
	"repro/internal/telemetry"
)

// deque is one worker's queue: items[head:] are queued. Only the owner
// pushes and pops from the back (LIFO mode) or the front (FIFO mode);
// stealers take items[head]. batch is where the owner's current
// expansion started pushing, so done can flip that batch into pop
// order. Only the owner moves the items down (compaction) or resets
// the deque, so batch stays valid while the owner expands.
type deque[C model.Config] struct {
	mu    sync.Mutex
	items []item[C]
	head  int
	batch int
	_     [64]byte // keep neighbouring deques' locks off one cache line
}

// pool is the engine's work pool plus the in-flight counter that
// detects quiescence.
type pool[C model.Config] struct {
	deques []deque[C]
	// lifo is set with two or more workers: owners pop their newest
	// batch first and stealers take the oldest item.
	lifo bool
	// queued counts items on the deques; pending counts queued plus
	// currently-processing items and reaches zero only at quiescence.
	queued  atomic.Int64
	pending atomic.Int64
	stopped atomic.Bool

	// mu and cond park idle workers; idle counts them so a push
	// signals only when someone is parked.
	mu   sync.Mutex
	cond sync.Cond
	idle atomic.Int32

	// tel, when non-nil, mirrors pending into the frontier gauges.
	tel *telemetry.Registry
}

func (p *pool[C]) init(workers int, tel *telemetry.Registry) {
	p.deques = make([]deque[C], workers)
	p.lifo = workers > 1
	p.cond.L = &p.mu
	p.tel = tel
}

// push queues it on worker w's deque. pending rises before the item is
// visible, so it never counts fewer items than a stealer can see.
func (p *pool[C]) push(w int, it item[C]) {
	n := p.pending.Add(1)
	d := &p.deques[w]
	d.mu.Lock()
	d.items = append(d.items, it)
	d.mu.Unlock()
	p.queued.Add(1)
	if p.tel != nil {
		p.tel.SetGauge(telemetry.EngineGaugeFrontier, n)
		p.tel.MaxGauge(telemetry.EngineGaugeFrontierPeak, n)
	}
	// Paired with park: the parker raises idle before it reads queued,
	// and this reads idle after raising queued, so one side sees the
	// other.
	if p.idle.Load() > 0 {
		p.mu.Lock()
		p.cond.Signal()
		p.mu.Unlock()
	}
}

// pop returns worker w's next item: its own deque first, then the
// oldest item of another. It parks while every deque is empty but work
// is in flight, and reports ok=false once the pool quiesces or the
// search is stopped. cell counts steals and parked time.
func (p *pool[C]) pop(w int, cell *telemetry.Cell) (item[C], bool) {
	for !p.stopped.Load() {
		if it, ok := p.take(w); ok {
			return it, true
		}
		if it, ok := p.steal(w); ok {
			cell.Add(telemetry.EnginePoolSteals, 1)
			return it, true
		}
		if p.pending.Load() == 0 {
			return item[C]{}, false
		}
		p.park(cell)
	}
	return item[C]{}, false
}

// take pops from w's own deque: the front in FIFO mode, the back in
// LIFO mode. The owner also compacts and resets here, and marks where
// the expansion of the popped item starts pushing.
func (p *pool[C]) take(w int) (item[C], bool) {
	d := &p.deques[w]
	d.mu.Lock()
	defer d.mu.Unlock()
	var it item[C]
	switch {
	case d.head == len(d.items):
		d.items, d.head = d.items[:0], 0
		return it, false
	case p.lifo:
		n := len(d.items) - 1
		it = d.items[n]
		d.items[n] = item[C]{} // release the config for GC
		d.items = d.items[:n]
	default:
		it = d.items[d.head]
		d.items[d.head] = item[C]{}
		d.head++
	}
	// Keep the backing array proportional to the live queue.
	if d.head > 1024 && d.head > len(d.items)/2 {
		n := copy(d.items, d.items[d.head:])
		clear(d.items[n:])
		d.items, d.head = d.items[:n], 0
	}
	d.batch = len(d.items)
	p.queued.Add(-1)
	return it, true
}

// steal takes the oldest item of another worker's deque, trying them
// in order after w. It marks w's own deque for the stolen item's
// batch.
func (p *pool[C]) steal(w int) (item[C], bool) {
	n := len(p.deques)
	for i := 1; i < n; i++ {
		d := &p.deques[(w+i)%n]
		d.mu.Lock()
		if d.head == len(d.items) {
			d.mu.Unlock()
			continue
		}
		it := d.items[d.head]
		d.items[d.head] = item[C]{}
		d.head++
		d.mu.Unlock()
		p.queued.Add(-1)
		own := &p.deques[w]
		own.mu.Lock()
		own.batch = len(own.items)
		own.mu.Unlock()
		return it, true
	}
	return item[C]{}, false
}

// park waits until an item is queued, the pool quiesces or the search
// is stopped. Parked time goes to pool_wait_ns, read only here, and
// only when telemetry is on.
func (p *pool[C]) park(cell *telemetry.Cell) {
	var t0 time.Time
	if cell != nil {
		t0 = time.Now()
	}
	p.mu.Lock()
	p.idle.Add(1)
	for p.queued.Load() <= 0 && p.pending.Load() > 0 && !p.stopped.Load() {
		p.cond.Wait()
	}
	p.idle.Add(-1)
	p.mu.Unlock()
	if cell != nil {
		cell.Add(telemetry.EnginePoolWaitNS, uint64(time.Since(t0)))
	}
}

// done retires worker w's in-flight item. In LIFO mode it first
// reverses the batch the item's expansion pushed, so the owner pops
// those successors in the order they were built.
func (p *pool[C]) done(w int) {
	if p.lifo {
		d := &p.deques[w]
		d.mu.Lock()
		if lo := max(d.batch, d.head); lo < len(d.items) {
			b := d.items[lo:]
			for i, j := 0, len(b)-1; i < j; i, j = i+1, j-1 {
				b[i], b[j] = b[j], b[i]
			}
		}
		d.mu.Unlock()
	}
	n := p.pending.Add(-1)
	if p.tel != nil {
		p.tel.SetGauge(telemetry.EngineGaugeFrontier, n)
	}
	if n == 0 {
		p.wakeAll()
	}
}

func (p *pool[C]) wakeAll() {
	p.mu.Lock()
	p.cond.Broadcast()
	p.mu.Unlock()
}

func (p *pool[C]) stop() {
	p.stopped.Store(true)
	p.wakeAll()
}

// resume clears the stop flag after a checkpoint suspension; the
// re-started workers drain the deques the suspension left behind
// (pending == queued items again, since every in-flight item was
// either completed or unclaimed and re-queued before the workers
// exited).
func (p *pool[C]) resume() {
	p.stopped.Store(false)
}
