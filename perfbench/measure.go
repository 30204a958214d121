package main

// Process-level measurement: CPU time and peak RSS from getrusage,
// runtime counters from runtime/metrics, and order statistics.

import (
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// rusage reads the process's user+sys CPU seconds and its peak
// resident set size in MiB (Linux reports ru_maxrss in KiB).
func rusage() (cpuS, peakRSSMB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime), float64(ru.Maxrss) / 1024
}

func cpuSeconds() float64 {
	c, _ := rusage()
	return c
}

// quantile returns the q-quantile of xs by linear interpolation
// between order statistics; xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}

func median(xs []float64) float64 {
	return quantile(append([]float64(nil), xs...), 0.5)
}

// rtCounters is a reading of the runtime's cumulative GC and
// allocation counters.
type rtCounters struct {
	gcCPU, allocBytes, allocObjects, gcCycles float64
}

var rtNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
}

func readRuntime() rtCounters {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return rtCounters{gcCPU: v(0), allocBytes: v(1), allocObjects: v(2), gcCycles: v(3)}
}

func (a rtCounters) sub(b rtCounters) rtCounters {
	return rtCounters{a.gcCPU - b.gcCPU, a.allocBytes - b.allocBytes,
		a.allocObjects - b.allocObjects, a.gcCycles - b.gcCycles}
}

func (a rtCounters) add(b rtCounters) rtCounters {
	return rtCounters{a.gcCPU + b.gcCPU, a.allocBytes + b.allocBytes,
		a.allocObjects + b.allocObjects, a.gcCycles + b.gcCycles}
}

// heapWatch samples the heap's object bytes on a ticker and keeps the
// maximum, so a pass's peak heap is seen between phase boundaries.
type heapWatch struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

const heapObjects = "/memory/classes/heap/objects:bytes"

func watchHeap(every time.Duration) *heapWatch {
	w := &heapWatch{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		s := []metrics.Sample{{Name: heapObjects}}
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > w.peak {
				w.peak = v
			}
			select {
			case <-w.stop:
				return
			case <-t.C:
			}
		}
	}()
	return w
}

// Stop ends the sampling, waits for the sampler to exit and returns
// the peak in bytes.
func (w *heapWatch) Stop() uint64 {
	close(w.stop)
	<-w.done
	return w.peak
}
