package serve

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// FuzzDecodeRequest feeds arbitrary bodies through the request decoder
// (decodeRequest: raw .lit or JSON, chosen by Content-Type or by
// sniffing) and the validator behind every query (prepare: parse,
// assemble, resolve the model, clamp the budgets, key the cache). Bad
// input must come back as an error — never a panic or a hang — and an
// accepted request must be clamped to the server's ceilings and keyed
// deterministically. The seed corpus is every testdata program, raw
// and wrapped in JSON, plus malformed and hostile requests.
func FuzzDecodeRequest(f *testing.F) {
	files, _ := filepath.Glob(filepath.Join("..", "..", "testdata", "*.lit"))
	ds, _ := filepath.Glob(filepath.Join("..", "..", "testdata", "ds", "*.lit"))
	for _, fn := range append(files, ds...) {
		src, err := os.ReadFile(fn)
		if err != nil {
			continue
		}
		f.Add(src, uint8(0))
		body, _ := json.Marshal(Request{Name: filepath.Base(fn), Program: string(src), MaxEvents: 6, Model: "sc"})
		f.Add(body, uint8(1))
	}
	for _, body := range []string{
		``,
		`{`,
		`{}`,
		`  {"program": ""}`,
		`{"program": "thread 1 { x := 1; }", "model": "tso"}`,
		`{"program": "init x = 0\nthread 1 { x := 1; }", "max_events": -5, "max_states": 9999999999, "timeout_ms": -1}`,
		`{"program": 7}`,
		`{"por": "yes"}`,
		`[1, 2, 3]`,
		`thread 1 { a[4000000000] := 1; }`,
		`init x = 99999999999999999999999`,
	} {
		for ct := uint8(0); ct < 3; ct++ {
			f.Add([]byte(body), ct)
		}
	}

	s := New(Config{MaxEvents: 8, MaxStates: 1000, MaxTimeout: 2 * time.Second})
	contentTypes := []string{"", "application/json", "text/plain"}
	f.Fuzz(func(t *testing.T, body []byte, ct uint8) {
		r := httptest.NewRequest("POST", "/v1/verify", bytes.NewReader(body))
		if c := contentTypes[int(ct)%len(contentTypes)]; c != "" {
			r.Header.Set("Content-Type", c)
		}
		req, err := decodeRequest(r)
		if err != nil {
			return
		}
		q, err := s.prepare(req)
		if err != nil {
			return
		}
		if q.maxEvents < 1 || q.maxEvents > s.cfg.MaxEvents ||
			q.maxStates < 1 || q.maxStates > s.cfg.MaxStates ||
			q.timeout <= 0 || q.timeout > s.cfg.MaxTimeout {
			t.Fatalf("budgets escaped their ceilings: events %d, states %d, timeout %v",
				q.maxEvents, q.maxStates, q.timeout)
		}
		if len(q.key) != 64 || strings.Trim(q.key, "0123456789abcdef") != "" {
			t.Fatalf("malformed cache key %q", q.key)
		}
		again, err := s.prepare(req)
		if err != nil || again.key != q.key {
			t.Fatalf("preparing the same request twice: key %q then %q (%v)", q.key, again.key, err)
		}
	})
}
