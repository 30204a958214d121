package telemetry

// The search tracer: search lifecycle events in Chrome trace_event
// format (the JSON Array Format), loadable in chrome://tracing and
// Perfetto as written. Each Record becomes one event: spans map to
// B/E duration events, instants to thread-scoped i events, counter
// samples to C; the worker id is the tid (engine-level records land on
// tid 0, where they nest around the worker spans). The tracer writes
// `[` when it opens, one event per line with a `,` before every event
// after the first, and `]` on Close. The trace viewers accept a missing
// closing `]`, so a flushed trace of a killed process still loads.
//
// The tracer is deliberately coarse: the engine emits lifecycle spans
// and periodic batch samples, never per-successor records, so tracing
// a large search stays cheap and the output stays loadable.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"time"
)

// Record is one trace event before encoding.
type Record struct {
	// TS is microseconds since the tracer was created.
	TS int64
	// Type is "begin" or "end" (a span), "instant" (a point event) or
	// "counter" (a periodic sample carried in Args).
	Type string
	// Name identifies the span/event ("search", "worker",
	// "stop", "panic", ...).
	Name string
	// Worker is the emitting worker id; -1 for engine-level records.
	Worker int
	// Args carries record-specific values.
	Args map[string]any
}

// chromeEvent is one trace_event entry.
type chromeEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    int64          `json:"ts"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// phases maps Record.Type to the trace_event phase.
var phases = map[string]string{"begin": "B", "end": "E", "instant": "i", "counter": "C"}

// Tracer writes Records as Chrome trace_event JSON. All methods are
// safe for concurrent use and nil-safe: a nil tracer discards
// everything, so the engine calls it unconditionally.
type Tracer struct {
	mu     sync.Mutex
	bw     *bufio.Writer
	enc    *json.Encoder
	cl     io.Closer
	start  time.Time
	now    func() time.Time // test seam for deterministic timestamps
	events int              // events written so far
	err    error
}

// NewTracer writes the trace to w, starting with the array's `[`. If
// w is an io.Closer, Close closes it.
func NewTracer(w io.Writer) *Tracer {
	bw := bufio.NewWriter(w)
	t := &Tracer{bw: bw, enc: json.NewEncoder(bw), now: time.Now}
	t.start = t.now()
	if c, ok := w.(io.Closer); ok {
		t.cl = c
	}
	t.write("[\n")
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

// write appends s to the buffered output, keeping the first error.
// The caller holds mu (or owns t exclusively).
func (t *Tracer) write(s string) {
	if t.err != nil {
		return
	}
	if _, err := t.bw.WriteString(s); err != nil {
		t.err = err
	}
}

// Emit writes one record as one event line, stamping TS if it is
// zero. A record of unknown Type is the tracer's error. Nil-safe.
func (t *Tracer) Emit(rec Record) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil || t.bw == nil {
		return
	}
	ph, ok := phases[rec.Type]
	if !ok {
		t.err = fmt.Errorf("telemetry: unknown trace record type %q", rec.Type)
		return
	}
	if rec.TS == 0 {
		rec.TS = t.now().Sub(t.start).Microseconds()
	}
	ev := chromeEvent{Name: rec.Name, Phase: ph, TS: rec.TS, PID: 1, TID: max(rec.Worker, 0), Args: rec.Args}
	if ph == "i" {
		ev.Scope = "t"
	}
	if t.events > 0 {
		t.write(",")
	}
	if t.err == nil {
		t.err = t.enc.Encode(ev)
	}
	t.events++
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

// Flush flushes buffered events to the underlying writer. Nil-safe.
func (t *Tracer) Flush() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.flushLocked()
}

func (t *Tracer) flushLocked() error {
	if t.bw == nil {
		return t.err
	}
	if err := t.bw.Flush(); err != nil && t.err == nil {
		t.err = err
	}
	return t.err
}

// Close ends the array with `]`, flushes and closes the underlying
// writer (when it is closeable), returning the first error the tracer
// hit. Later calls emit nothing. Nil-safe.
func (t *Tracer) Close() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.bw == nil {
		return t.err
	}
	t.write("]\n")
	err := t.flushLocked()
	t.bw = nil
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
