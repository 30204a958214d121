package telemetry

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fixedClockTracer returns a tracer whose clock advances 100µs per
// reading, so emitted timestamps are deterministic.
func fixedClockTracer(w *bytes.Buffer) *Tracer {
	base := time.Unix(0, 0)
	n := 0
	tr := &Tracer{}
	*tr = *NewTracer(w)
	tr.now = func() time.Time {
		n++
		return base.Add(time.Duration(n) * 100 * time.Microsecond)
	}
	tr.start = base
	return tr
}

func golden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s mismatch:\ngot:\n%s\nwant:\n%s", name, got, want)
	}
}

// emitFixture writes the representative trace the golden pins: a
// search span wrapping two worker spans, a counter sample, a panic
// instant and a stop instant.
func emitFixture(tr *Tracer) {
	tr.Begin("search", -1)
	tr.Begin("worker", 0)
	tr.Begin("worker", 1)
	tr.Count("expansion_batch", 0, map[string]any{"expansions": 1024, "explored": 2048})
	tr.Instant("panic", -1, map[string]any{"depth": 7, "err": "boom"})
	tr.Instant("stop", -1, map[string]any{"cause": "deadline"})
	tr.End("worker", 1, nil)
	tr.End("worker", 0, nil)
	tr.End("search", -1, map[string]any{"explored": 2048, "verdict": "BOUNDED"})
}

// chromeDoc decodes a trace in the JSON Array Format.
func chromeDoc(t *testing.T, data []byte) []map[string]any {
	t.Helper()
	var events []map[string]any
	if err := json.Unmarshal(data, &events); err != nil {
		t.Fatalf("trace is not a JSON array: %v\n%s", err, data)
	}
	return events
}

func TestTraceGoldenChrome(t *testing.T) {
	var buf bytes.Buffer
	tr := fixedClockTracer(&buf)
	emitFixture(tr)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	// Loadable Chrome trace format: an array of events carrying
	// ph/ts/pid/tid, with balanced spans.
	events := chromeDoc(t, buf.Bytes())
	if len(events) != 9 {
		t.Fatalf("trace has %d events, want 9", len(events))
	}
	begins, ends := 0, 0
	for _, ev := range events {
		switch ev["ph"] {
		case "B":
			begins++
		case "E":
			ends++
		case "i":
			if ev["s"] != "t" {
				t.Errorf("instant %v is not thread-scoped", ev["name"])
			}
		case "C":
		default:
			t.Errorf("unexpected phase %v", ev["ph"])
		}
		for _, k := range []string{"ts", "pid", "tid"} {
			if _, ok := ev[k]; !ok {
				t.Errorf("event %v without %s", ev["name"], k)
			}
		}
	}
	if begins != 3 || ends != 3 {
		t.Errorf("span balance: %d begins, %d ends", begins, ends)
	}
	golden(t, "trace_chrome.json", buf.Bytes())
}

// A closed trace is one JSON array; a trace flushed but never closed —
// the writer was killed — parses once the closing `]` is appended.
func TestTraceClosedAndTruncated(t *testing.T) {
	var buf bytes.Buffer
	tr := fixedClockTracer(&buf)
	tr.Begin("search", -1)
	tr.Count("expansion_batch", 1, map[string]any{"explored": 9})
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf.Bytes(), new([]any)); err == nil {
		t.Fatal("an unclosed trace parsed as a complete array")
	}
	if events := chromeDoc(t, append(bytes.Clone(buf.Bytes()), ']')); len(events) != 2 {
		t.Fatalf("truncated trace has %d events, want 2", len(events))
	}
	tr.End("search", -1, nil)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	tr.End("search", -1, nil) // after Close: dropped
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if events := chromeDoc(t, buf.Bytes()); len(events) != 3 {
		t.Fatalf("closed trace has %d events, want 3", len(events))
	}
}

func TestTraceRejectsUnknownType(t *testing.T) {
	tr := NewTracer(&bytes.Buffer{})
	tr.Emit(Record{Type: "bogus", Name: "x"})
	if tr.Err() == nil {
		t.Fatal("unknown record type should be the tracer's error")
	}
}

func TestReporterEmitsLines(t *testing.T) {
	var mu syncBuffer
	var n int64
	rep := NewReporter(&mu, 10*time.Millisecond, func() Sample {
		n += 100
		return Sample{Explored: n, Terminated: n / 2, Frontier: 3, Depth: 9}
	})
	rep.Start()
	time.Sleep(35 * time.Millisecond)
	rep.Stop()
	rep.Stop() // idempotent
	out := mu.String()
	if !strings.Contains(out, "progress: explored=") {
		t.Fatalf("no periodic progress line in %q", out)
	}
	if !strings.Contains(out, "progress(final): explored=") {
		t.Fatalf("no final progress line in %q", out)
	}
	if !strings.Contains(out, "frontier=3") || !strings.Contains(out, "depth=9") {
		t.Fatalf("sample fields missing in %q", out)
	}
}

func TestReporterFinalLineWithoutTick(t *testing.T) {
	// A run shorter than the interval still yields the final line.
	var mu syncBuffer
	rep := NewReporter(&mu, time.Hour, func() Sample { return Sample{Explored: 42} })
	rep.Start()
	rep.Stop()
	if !strings.Contains(mu.String(), "progress(final): explored=42") {
		t.Fatalf("missing final line: %q", mu.String())
	}
}

// syncBuffer is a goroutine-safe strings.Builder for reporter output.
type syncBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}
