package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/event"
	"repro/internal/faultinject"
	"repro/internal/lang"
	"repro/internal/model"
)

// mpSync is message passing with release/acquire synchronisation: the
// forbidden stale read is unreachable, so the RAR verdict is PROVED
// and every expectation holds.
const mpSync = `init d=0 f=0 a=0 b=0
thread 1 { d := 5; f :=R 1; }
thread 2 { a := f^A; b := d; }
observe a b
allow a=0 b=0
allow a=0 b=5
allow a=1 b=5
forbid a=1 b=0
`

// mpRelaxed drops the annotations: under RAR the stale read a=1 b=0
// is reachable, so the forbid refutes — verdict VIOLATED.
const mpRelaxed = `init d=0 f=0 a=0 b=0
thread 1 { d := 5; f := 1; }
thread 2 { a := f; b := d; }
observe a b
forbid a=1 b=0
`

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postVerify(t *testing.T, ts *httptest.Server, req Request) (*Response, int) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hr, err := http.Post(ts.URL+"/v1/verify", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/verify: %v", err)
	}
	defer hr.Body.Close()
	var resp Response
	if err := json.NewDecoder(hr.Body).Decode(&resp); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return &resp, hr.StatusCode
}

func TestVerifyProved(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, status := postVerify(t, ts, Request{Name: "mp", Program: mpSync})
	if status != http.StatusOK {
		t.Fatalf("status = %d, resp %+v", status, resp)
	}
	if resp.Verdict != "PROVED" || resp.Pass == nil || !*resp.Pass {
		t.Fatalf("verdict %s pass %v, want PROVED/true (%+v)", resp.Verdict, resp.Pass, resp)
	}
	if resp.Cached {
		t.Fatal("first query claimed a cache hit")
	}
	if len(resp.Outcomes) != 3 {
		t.Fatalf("outcomes %v, want the three allowed ones", resp.Outcomes)
	}
	if resp.MaxEvents == 0 || resp.MaxStates == 0 || resp.TimeoutMS == 0 {
		t.Fatalf("effective budgets missing from response: %+v", resp)
	}
}

func TestVerifyViolatedWithTrace(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, status := postVerify(t, ts, Request{Program: mpRelaxed, Trace: true})
	if status != http.StatusOK {
		t.Fatalf("status = %d", status)
	}
	if resp.Verdict != "VIOLATED" || resp.Pass == nil || *resp.Pass {
		t.Fatalf("verdict %s pass %v, want VIOLATED/false", resp.Verdict, resp.Pass)
	}
	if len(resp.ReachedForbidden) != 1 || resp.ReachedForbidden[0] != "a=1;b=0;" {
		t.Fatalf("reached_forbidden = %v", resp.ReachedForbidden)
	}
	if !strings.Contains(resp.Trace, "start:") {
		t.Fatalf("witness trace missing: %q", resp.Trace)
	}
}

func TestRawLitmusBody(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	hr, err := http.Post(ts.URL+"/v1/verify", "text/plain", strings.NewReader(mpSync))
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	var resp Response
	if err := json.NewDecoder(hr.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if hr.StatusCode != http.StatusOK || resp.Verdict != "PROVED" {
		t.Fatalf("raw body: status %d verdict %s", hr.StatusCode, resp.Verdict)
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for name, req := range map[string]Request{
		"empty":         {},
		"syntax":        {Program: "init x=\nthread"},
		"unknown model": {Program: mpSync, Model: "tso"},
		"bad artifact":  {Resume: "../../etc/passwd"},
	} {
		resp, status := postVerify(t, ts, req)
		if status != http.StatusBadRequest || resp.Error == "" {
			t.Errorf("%s: status %d error %q, want 400 with message", name, status, resp.Error)
		}
	}
}

func TestResumeUnknownArtifact(t *testing.T) {
	_, ts := newTestServer(t, Config{SpillDir: t.TempDir()})
	resp, status := postVerify(t, ts, Request{Resume: "deadbeef"})
	if status != http.StatusNotFound {
		t.Fatalf("status = %d (%+v), want 404", status, resp)
	}
}

func TestCacheHit(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	first, _ := postVerify(t, ts, Request{Program: mpSync})
	second, _ := postVerify(t, ts, Request{Program: mpSync})
	if first.Cached || !second.Cached {
		t.Fatalf("cached flags = %v, %v; want false, true", first.Cached, second.Cached)
	}
	if second.Verdict != first.Verdict || len(second.Outcomes) != len(first.Outcomes) {
		t.Fatalf("cached answer drifted: %+v vs %+v", second, first)
	}
	// A different model is a different query.
	sc, _ := postVerify(t, ts, Request{Program: mpSync, Model: "sc"})
	if sc.Cached {
		t.Fatal("query under a different model hit the cache")
	}
	st := s.Stats()
	if st.CacheHits != 1 || st.CacheMisses != 2 {
		t.Fatalf("stats hits=%d misses=%d, want 1/2", st.CacheHits, st.CacheMisses)
	}
	if st.CacheHitRate == 0 {
		t.Fatal("hit rate not computed")
	}
}

func TestBudgetClamping(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxEvents: 8, MaxStates: 500, MaxTimeout: 2 * time.Second})
	resp, _ := postVerify(t, ts, Request{
		Program: mpSync, MaxEvents: 10_000, MaxStates: 1 << 30, TimeoutMS: 1 << 30,
	})
	if resp.MaxEvents != 8 || resp.MaxStates != 500 || resp.TimeoutMS != 2000 {
		t.Fatalf("budgets not clamped: %+v", resp)
	}
}

func TestTimingCutNotCachedNeverProved(t *testing.T) {
	// A 1ms deadline with injected latency cuts the search; the answer
	// must be BOUNDED (never PROVED) and must not be cached.
	_, ts := newTestServer(t, Config{
		Hooks: faultinject.New(faultinject.Spec{LatencyEvery: 1, Latency: 5 * time.Millisecond}),
	})
	for i := 0; i < 2; i++ {
		resp, status := postVerify(t, ts, Request{Program: mpSync, TimeoutMS: 1})
		if status != http.StatusOK {
			t.Fatalf("status = %d", status)
		}
		if resp.Verdict != "BOUNDED" {
			t.Fatalf("cut search verdict = %s, want BOUNDED", resp.Verdict)
		}
		if resp.Pass != nil {
			t.Fatalf("cut search pass = %v, want inconclusive (absent)", *resp.Pass)
		}
		if resp.Cached {
			t.Fatal("timing-cut result was served from cache")
		}
	}
}

func TestStateBudgetCutIsCached(t *testing.T) {
	// A MaxConfigs cut is deterministic (serial engine), so it is
	// cacheable — unlike the timing cuts above.
	_, ts := newTestServer(t, Config{})
	first, _ := postVerify(t, ts, Request{Program: mpSync, MaxStates: 3})
	second, _ := postVerify(t, ts, Request{Program: mpSync, MaxStates: 3})
	if first.Verdict != "BOUNDED" || first.Stop != "max-configs" {
		t.Fatalf("state-cut first response: %+v", first)
	}
	if !second.Cached {
		t.Fatal("deterministic state-budget cut was not cached")
	}
}

func TestSheddingUnderLoad(t *testing.T) {
	// One worker, queue of one, slow searches: concurrent distinct
	// queries beyond two must be shed with 503 + Retry-After.
	s, ts := newTestServer(t, Config{
		Workers: 1, QueueDepth: 1,
		Hooks: faultinject.New(faultinject.Spec{LatencyEvery: 1, Latency: 10 * time.Millisecond}),
	})
	const n = 8
	statuses := make([]int, n)
	retryAfter := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Distinct init values make distinct cache keys, so
			// singleflight cannot merge these.
			prog := fmt.Sprintf("init x=%d y=0\nthread 1 { x := 1; }\nthread 2 { y := x; }\nobserve x y\n", i+2)
			body, _ := json.Marshal(Request{Program: prog})
			hr, err := http.Post(ts.URL+"/v1/verify", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			defer hr.Body.Close()
			statuses[i] = hr.StatusCode
			retryAfter[i] = hr.Header.Get("Retry-After")
		}(i)
	}
	wg.Wait()
	ok, shed := 0, 0
	for i, st := range statuses {
		switch st {
		case http.StatusOK:
			ok++
		case http.StatusServiceUnavailable:
			shed++
			if retryAfter[i] == "" {
				t.Error("shed response missing Retry-After")
			}
		default:
			t.Errorf("request %d: unexpected status %d", i, st)
		}
	}
	if shed == 0 {
		t.Fatalf("no request shed across %d concurrent (ok=%d)", n, ok)
	}
	if got := s.Stats().Shed; got != int64(shed) {
		t.Fatalf("stats.shed = %d, observed %d", got, shed)
	}
}

func TestSingleflightSharesOneSearch(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Workers: 2,
		Hooks:   faultinject.New(faultinject.Spec{LatencyEvery: 1, Latency: 5 * time.Millisecond}),
	})
	results := make(chan *Response, 2)
	go func() {
		resp, _ := postVerify(t, ts, Request{Program: mpSync})
		results <- resp
	}()
	// Wait for the leader's search to be running, then send the
	// identical query: it must join, not start a second search.
	waitFor(t, func() bool { return s.Stats().Running >= 1 })
	go func() {
		resp, _ := postVerify(t, ts, Request{Program: mpSync})
		results <- resp
	}()
	a, b := <-results, <-results
	if a.Verdict != "PROVED" || b.Verdict != "PROVED" {
		t.Fatalf("verdicts %s/%s", a.Verdict, b.Verdict)
	}
	st := s.Stats()
	if st.CacheShared != 1 {
		t.Fatalf("cache_shared = %d, want 1 (completed=%d)", st.CacheShared, st.Completed)
	}
	if st.Completed != 1 {
		t.Fatalf("completed = %d searches for two identical queries, want 1", st.Completed)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 10s")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestHealthReadyStatz(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	get := func(path string) (int, string) {
		hr, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer hr.Body.Close()
		var b bytes.Buffer
		b.ReadFrom(hr.Body)
		return hr.StatusCode, b.String()
	}
	if st, body := get("/healthz"); st != 200 || body != "ok\n" {
		t.Fatalf("healthz: %d %q", st, body)
	}
	if st, _ := get("/readyz"); st != 200 {
		t.Fatalf("readyz before drain: %d", st)
	}
	st, body := get("/statz")
	if st != 200 {
		t.Fatalf("statz: %d", st)
	}
	var z Statz
	if err := json.Unmarshal([]byte(body), &z); err != nil {
		t.Fatalf("statz not JSON: %v\n%s", err, body)
	}
	if z.Workers == 0 || z.QueueDepth == 0 {
		t.Fatalf("statz missing pool config: %+v", z)
	}
	s.StartDrain()
	if st, _ := get("/readyz"); st != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining: %d, want 503", st)
	}
	if st, _ := get("/healthz"); st != 200 {
		t.Fatalf("healthz while draining: %d, want 200", st)
	}
}

func TestBatch(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body, _ := json.Marshal(BatchRequest{Requests: []Request{
		{Name: "good", Program: mpSync},
		{Name: "bad", Program: "not a litmus file"},
		{Name: "violated", Program: mpRelaxed},
	}})
	hr, err := http.Post(ts.URL+"/v1/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", hr.StatusCode)
	}
	var batch BatchResponse
	if err := json.NewDecoder(hr.Body).Decode(&batch); err != nil {
		t.Fatal(err)
	}
	if len(batch.Responses) != 3 {
		t.Fatalf("%d responses for 3 requests", len(batch.Responses))
	}
	if batch.Responses[0].Verdict != "PROVED" || batch.Responses[0].Name != "good" {
		t.Fatalf("item 0: %+v", batch.Responses[0])
	}
	if batch.Responses[1].Error == "" {
		t.Fatalf("item 1 should have failed: %+v", batch.Responses[1])
	}
	if batch.Responses[2].Verdict != "VIOLATED" {
		t.Fatalf("item 2: %+v", batch.Responses[2])
	}
}

// panicModel is a Model whose factory panics: a stand-in for any bug
// on the request path, driving the isolation seam.
type panicModel struct{ model.Model }

func (panicModel) Name() string { return "panic" }
func (panicModel) New(p lang.Prog, vars map[event.Var]event.Val) model.Config {
	panic("injected model bug")
}

func TestRequestPanicIsolation(t *testing.T) {
	spill := t.TempDir()
	s, ts := newTestServer(t, Config{SpillDir: spill})
	// Drive runQuery directly with a poisoned query: the HTTP layer
	// cannot construct one (backends are fixed), but a bug anywhere on
	// the execution path lands in the same recover.
	q, err := s.prepare(&Request{Name: "boom", Program: mpSync})
	if err != nil {
		t.Fatal(err)
	}
	q.model = panicModel{}
	resp, status := s.runQuery(t.Context(), q, "", "", nil)
	if status != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", status)
	}
	if !strings.Contains(resp.Error, "injected model bug") {
		t.Fatalf("error = %q", resp.Error)
	}
	if resp.Artifact == "" {
		t.Fatal("no replay artifact for the panic")
	}
	if s.Stats().Panics != 1 {
		t.Fatalf("panics stat = %d", s.Stats().Panics)
	}
	// The server is still alive and serving.
	after, st := postVerify(t, ts, Request{Program: mpSync})
	if st != http.StatusOK || after.Verdict != "PROVED" {
		t.Fatalf("server unhealthy after panic: %d %+v", st, after)
	}
}

func TestDrainCheckpointResume(t *testing.T) {
	spill := t.TempDir()
	// Ground truth: the uninterrupted verdict.
	_, clean := newTestServer(t, Config{})
	want, _ := postVerify(t, clean, Request{Program: mpSync})
	if want.Verdict != "PROVED" {
		t.Fatalf("ground truth: %+v", want)
	}

	// A slow server: the search is mid-flight when drain begins.
	s, ts := newTestServer(t, Config{
		SpillDir: spill,
		Hooks:    faultinject.New(faultinject.Spec{LatencyEvery: 1, Latency: 20 * time.Millisecond}),
	})
	got := make(chan *Response, 1)
	go func() {
		resp, _ := postVerify(t, ts, Request{Program: mpSync})
		got <- resp
	}()
	waitFor(t, func() bool { return s.Stats().Running >= 1 })
	if clean := s.Drain(time.Millisecond); clean {
		t.Fatal("drain claims clean although a slow search was running")
	}
	resp := <-got
	if resp.Verdict != "BOUNDED" {
		t.Fatalf("drained search verdict = %s, want BOUNDED", resp.Verdict)
	}
	if !strings.Contains(resp.Stop, "cancel") {
		t.Fatalf("drained search stop = %q", resp.Stop)
	}
	if resp.Artifact == "" {
		t.Fatal("drained search left no resumable artifact")
	}

	// New queries are shed while draining.
	shedResp, shedStatus := postVerify(t, ts, Request{Program: mpRelaxed})
	if shedStatus != http.StatusServiceUnavailable {
		t.Fatalf("query during drain: %d %+v", shedStatus, shedResp)
	}

	// A restarted server resumes the artifact to the uninterrupted
	// verdict, and the finished result lands in the cache.
	s2, ts2 := newTestServer(t, Config{SpillDir: spill})
	resumed, status := postVerify(t, ts2, Request{Resume: resp.Artifact})
	if status != http.StatusOK {
		t.Fatalf("resume status %d: %+v", status, resumed)
	}
	if !resumed.Resumed {
		t.Fatal("resumed response not marked as resumed")
	}
	if resumed.Verdict != want.Verdict || *resumed.Pass != *want.Pass {
		t.Fatalf("resumed to %s/%v, uninterrupted run gave %s/%v",
			resumed.Verdict, *resumed.Pass, want.Verdict, *want.Pass)
	}
	if len(resumed.Outcomes) != len(want.Outcomes) {
		t.Fatalf("resumed outcomes %v, want %v", resumed.Outcomes, want.Outcomes)
	}
	fresh, _ := postVerify(t, ts2, Request{Program: mpSync})
	if !fresh.Cached {
		t.Fatal("identical query after resume missed the cache")
	}
	if s2.Stats().Resumes != 1 {
		t.Fatalf("resumes stat = %d", s2.Stats().Resumes)
	}
}
