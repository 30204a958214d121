package telemetry

// The search tracer: structured JSONL records of search lifecycle
// (one JSON object per line), written through a buffered writer under
// a mutex. Records carry a relative microsecond timestamp, a record
// type (span begin/end, instant event, counter sample), a name, the
// worker id (-1 for engine-level records) and free-form args.
// chrome.go converts the stream to Chrome trace_event format.
//
// The tracer is deliberately coarse: the engine emits lifecycle spans
// and periodic batch samples, never per-successor records, so tracing
// a large search stays cheap and the output stays loadable.

import (
	"bufio"
	"encoding/json"
	"io"
	"os"
	"sync"
	"time"
)

// Record is one trace line.
type Record struct {
	// TS is microseconds since the tracer was created.
	TS int64 `json:"ts_us"`
	// Type is "begin" or "end" (a span), "instant" (a point event) or
	// "counter" (a periodic sample carried in Args).
	Type string `json:"type"`
	// Name identifies the span/event ("search", "worker",
	// "stop", "panic", ...).
	Name string `json:"name"`
	// Worker is the emitting worker id; -1 for engine-level records.
	Worker int `json:"worker"`
	// Args carries record-specific values.
	Args map[string]any `json:"args,omitempty"`
}

// Tracer writes Records as JSONL. All methods are safe for
// concurrent use and nil-safe: a nil tracer discards everything, so
// the engine calls it unconditionally.
type Tracer struct {
	mu    sync.Mutex
	bw    *bufio.Writer
	enc   *json.Encoder
	cl    io.Closer
	start time.Time
	now   func() time.Time // test seam for deterministic timestamps
	err   error
}

// NewTracer writes records to w. If w is an io.Closer, Close closes
// it.
func NewTracer(w io.Writer) *Tracer {
	bw := bufio.NewWriter(w)
	t := &Tracer{bw: bw, enc: json.NewEncoder(bw), now: time.Now}
	t.start = t.now()
	if c, ok := w.(io.Closer); ok {
		t.cl = c
	}
	return t
}

// OpenTracer creates (truncating) path and traces into it.
func OpenTracer(path string) (*Tracer, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return NewTracer(f), nil
}

// Emit writes one record, stamping TS if it is zero. Nil-safe.
func (t *Tracer) Emit(rec Record) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return
	}
	if rec.TS == 0 {
		rec.TS = t.now().Sub(t.start).Microseconds()
	}
	if err := t.enc.Encode(rec); err != nil {
		t.err = err
	}
}

// Begin opens a span. Nil-safe.
func (t *Tracer) Begin(name string, worker int) {
	t.Emit(Record{Type: "begin", Name: name, Worker: worker})
}

// End closes a span, attaching args (may be nil). Nil-safe.
func (t *Tracer) End(name string, worker int, args map[string]any) {
	t.Emit(Record{Type: "end", Name: name, Worker: worker, Args: args})
}

// Instant records a point event. Nil-safe.
func (t *Tracer) Instant(name string, worker int, args map[string]any) {
	t.Emit(Record{Type: "instant", Name: name, Worker: worker, Args: args})
}

// Count records a counter sample; args maps series names to values.
// Nil-safe.
func (t *Tracer) Count(name string, worker int, args map[string]any) {
	t.Emit(Record{Type: "counter", Name: name, Worker: worker, Args: args})
}

// Flush flushes buffered records to the underlying writer. Nil-safe.
func (t *Tracer) Flush() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.flushLocked()
}

func (t *Tracer) flushLocked() error {
	if err := t.bw.Flush(); err != nil && t.err == nil {
		t.err = err
	}
	return t.err
}

// Close flushes and closes the underlying writer (when it is
// closeable), returning the first error the tracer hit. Nil-safe.
func (t *Tracer) Close() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	err := t.flushLocked()
	if t.cl != nil {
		if cerr := t.cl.Close(); cerr != nil && err == nil {
			err = cerr
		}
		t.cl = nil
	}
	return err
}

// Err returns the first write error the tracer hit, if any. Nil-safe.
func (t *Tracer) Err() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}
