package serve

// Query execution: parsing and clamping a request into engine
// options, running the search with panic isolation, building the JSON
// response, and the drain-checkpoint/resume round trip.

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"sync"
	"time"

	"repro/internal/explore"
	"repro/internal/lang"
	"repro/internal/litmus"
	"repro/internal/model"
	"repro/internal/model/backends"
	"repro/internal/parser"
)

// Request is one verification query. Program is litmus-file source
// (init/thread/observe/allow/forbid); the budget fields are clamped
// to the server's ceilings, with 0 meaning "server default". Resume
// names an artifact from an earlier cut run instead of a program.
type Request struct {
	// Name labels the query in responses and artifacts.
	Name string `json:"name,omitempty"`
	// Program is the litmus source to verify.
	Program string `json:"program,omitempty"`
	// Model selects the memory-model backend (default "rar").
	Model string `json:"model,omitempty"`
	// MaxEvents bounds per-thread progress (clamped; 0 = default).
	MaxEvents int `json:"max_events,omitempty"`
	// MaxStates bounds explored configurations (clamped; 0 = default).
	MaxStates int `json:"max_states,omitempty"`
	// TimeoutMS bounds wall clock (clamped; 0 = default).
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// POR toggles partial-order reduction (default on).
	POR *bool `json:"por,omitempty"`
	// Trace asks for a shortest witness when a forbidden outcome is
	// reached.
	Trace bool `json:"trace,omitempty"`
	// Resume continues the search behind the named artifact ID (from
	// an earlier response's "artifact" field) instead of starting one.
	Resume string `json:"resume,omitempty"`
}

// Response is the answer to one query. Verdict is the engine's
// tri-state; Pass folds in the file's allow/forbid expectations when
// the verdict is conclusive and is omitted (null) when it is not.
type Response struct {
	Name    string `json:"name,omitempty"`
	Model   string `json:"model,omitempty"`
	Verdict string `json:"verdict,omitempty"`
	Stop    string `json:"stop,omitempty"`
	// Pass: true = all allowed outcomes reached and no forbidden one;
	// false = an expectation failed; absent = inconclusive (BOUNDED).
	Pass             *bool    `json:"pass,omitempty"`
	Outcomes         []string `json:"outcomes,omitempty"`
	MissingAllowed   []string `json:"missing_allowed,omitempty"`
	ReachedForbidden []string `json:"reached_forbidden,omitempty"`

	// Effective (post-clamp) budgets the search ran under.
	MaxEvents int `json:"max_events,omitempty"`
	MaxStates int `json:"max_states,omitempty"`
	TimeoutMS int `json:"timeout_ms,omitempty"`

	// Coverage detail from the engine.
	Explored   int  `json:"explored"`
	Terminated int  `json:"terminated"`
	Frontier   int  `json:"frontier"`
	Depth      int  `json:"depth"`
	Truncated  bool `json:"truncated"`
	Panics     int  `json:"panics,omitempty"`

	Cached    bool  `json:"cached"`
	Resumed   bool  `json:"resumed,omitempty"`
	ElapsedMS int64 `json:"elapsed_ms"`

	// Artifact identifies a replayable spill file: a drain/cut
	// checkpoint (resume with {"resume": id}) or a panic repro.
	Artifact string `json:"artifact,omitempty"`
	Trace    string `json:"trace,omitempty"`
	Error    string `json:"error,omitempty"`
}

// query is a fully validated, clamped request: everything a search
// needs, independent of the HTTP layer.
type query struct {
	req       Request
	test      *litmus.Test
	model     model.Model
	maxEvents int
	maxStates int
	timeout   time.Duration
	por       bool
	key       string
}

func clamp(v, def, ceil int) int {
	if v <= 0 {
		return def
	}
	if v > ceil {
		return ceil
	}
	return v
}

// prepare validates req against the server's ceilings and resolves
// the program and model.
func (s *Server) prepare(req *Request) (*query, error) {
	if req.Program == "" {
		return nil, fmt.Errorf("empty program")
	}
	name := req.Name
	if name == "" {
		name = "request"
	}
	f, err := parser.Parse(name, req.Program)
	if err != nil {
		return nil, fmt.Errorf("parse program: %w", err)
	}
	test, err := f.Test()
	if err != nil {
		return nil, fmt.Errorf("assemble program: %w", err)
	}
	if len(test.Observe) == 0 {
		// Default to observing every initialised variable, in sorted
		// order, so the outcome keys are well defined.
		for x := range test.Init {
			test.Observe = append(test.Observe, x)
		}
		sort.Slice(test.Observe, func(i, j int) bool { return test.Observe[i] < test.Observe[j] })
	}
	modelName := req.Model
	if modelName == "" {
		modelName = "rar"
	}
	m, err := backends.Get(modelName)
	if err != nil {
		return nil, err
	}
	q := &query{
		req:       *req,
		test:      test,
		model:     m,
		maxEvents: clamp(req.MaxEvents, s.cfg.MaxEvents, s.cfg.MaxEvents),
		maxStates: clamp(req.MaxStates, s.cfg.MaxStates, s.cfg.MaxStates),
		por:       req.POR == nil || *req.POR,
	}
	maxMS := int(s.cfg.MaxTimeout / time.Millisecond)
	q.timeout = time.Duration(clamp(req.TimeoutMS, maxMS, maxMS)) * time.Millisecond
	q.key = s.cacheKey(q)
	return q, nil
}

// cacheKey hashes the canonical query identity: the test signature
// (program, init, observe, expectations), the model, and every
// effective option that changes what the search computes. The timeout
// is excluded — it changes whether the search finishes, not what a
// finished search means — and timing-cut results are never cached.
func (s *Server) cacheKey(q *query) string {
	buf := q.test.AppendSig(nil)
	buf = lang.AppendStringSig(buf, q.model.Name())
	buf = binary.AppendVarint(buf, int64(q.maxEvents))
	buf = binary.AppendVarint(buf, int64(q.maxStates))
	buf = binary.AppendVarint(buf, int64(s.cfg.EngineWorkers))
	if q.por {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

// cacheable reports whether resp may be served to future identical
// queries: only results whose stop cause is reproducible (quiescence,
// a violation, or a deterministic state-budget cut) and that saw no
// worker panics qualify. Deadline, cancellation and memory cuts
// depend on this run's timing and are answered fresh every time.
func cacheable(res explore.Result) bool {
	return !res.Stop.TimingDependent() && len(res.Panics) == 0
}

// execute answers one query end to end: validation, cache,
// singleflight, admission, search. It returns the response and the
// HTTP status to send.
func (s *Server) execute(ctx context.Context, req *Request) (*Response, int) {
	s.metrics.Add(ctrRequests, 1)
	if req.Resume != "" {
		return s.executeResume(ctx, req)
	}
	q, err := s.prepare(req)
	if err != nil {
		s.metrics.Add(ctrBadRequests, 1)
		return &Response{Name: req.Name, Error: err.Error()}, http.StatusBadRequest
	}
	if resp, ok := s.cache.get(q.key); ok {
		s.metrics.Add(ctrCacheHits, 1)
		hit := *resp
		hit.Cached = true
		hit.Name = req.Name
		return &hit, http.StatusOK
	}
	s.metrics.Add(ctrCacheMisses, 1)
	resp, status, shared, abandoned := s.flights.do(ctx, q.key, func() (*Response, int) {
		return s.runQuery(ctx, q, "", "", nil)
	})
	if abandoned {
		return &Response{Name: req.Name, Error: "request cancelled"}, statusClientClosedRequest
	}
	if shared {
		s.metrics.Add(ctrCacheShared, 1)
		cp := *resp
		cp.Name = req.Name
		return &cp, status
	}
	return resp, status
}

// statusClientClosedRequest mirrors nginx's 499: the client went away
// before the answer existed. Nothing is usually listening, but the
// handler must still pick a status.
const statusClientClosedRequest = 499

// runQuery runs the search for a prepared query (as singleflight
// leader): admission, isolation, checkpoint wiring, response. With an
// empty path it starts a fresh search under a new artifact ID;
// otherwise it resumes the checkpoint at path under artifact id,
// starting from the outcomes prior the interrupted run had collected.
func (s *Server) runQuery(ctx context.Context, q *query, id, path string, prior []string) (resp *Response, status int) {
	if err := s.acquire(ctx); err != nil {
		return s.shedResponse(q.req.Name, err)
	}
	defer s.release()

	if path == "" {
		id = s.newID()
	}
	start := time.Now()
	defer func() {
		if v := recover(); v != nil {
			resp, status = s.panicResponse(q.req.Name, q.req.Program, id, v)
		}
	}()

	// The search obeys the request context (client gone → stop), the
	// server's hard-drain context and the query's timeout — all one
	// context, whose deadline the engine reports as StopDeadline.
	searchCtx, cancel := context.WithTimeout(ctx, q.timeout)
	defer cancel()
	stop := context.AfterFunc(s.hardCtx, cancel)
	defer stop()

	// Outcome collection doubles as the violation detector: admitting
	// a terminated configuration whose outcome is forbidden falsifies
	// the property and stops the search with a witness.
	var mu sync.Mutex
	outcomes := make(map[string]bool, len(prior))
	for _, k := range prior {
		outcomes[k] = true
	}
	_, forbidden := q.test.Expectations(q.model.Name())
	forbiddenKeys := make(map[string]bool, len(forbidden))
	for _, o := range forbidden {
		forbiddenKeys[o.Key(q.test.Observe)] = true
	}

	opts := explore.Options{
		// A resume takes MaxEvents and POR from the checkpoint.
		MaxEvents:   q.maxEvents,
		MaxConfigs:  q.maxStates,
		Workers:     s.cfg.EngineWorkers,
		POR:         q.por,
		Context:     searchCtx,
		MaxMemBytes: uint64(s.cfg.MaxMemMB) << 20,
		Hooks:       s.cfg.Hooks,
		// One cumulative engine registry across all requests: /metrics
		// exposes the total engine work the service has done.
		Metrics: s.engine,
		Property: func(c model.Config) bool {
			if !c.Terminated() {
				return true
			}
			k := c.Summarise(q.test.Observe)
			mu.Lock()
			outcomes[k] = true
			mu.Unlock()
			return !forbiddenKeys[k]
		},
	}
	// A resumed search that is cut again checkpoints again, under the
	// same artifact ID: resumption is repeatable until it finishes.
	s.wireCheckpoint(&opts, id, &q.req, outcomes, &mu)

	var res explore.Result
	if path == "" {
		res = explore.Run(q.model.New(q.test.Prog, q.test.Init), opts)
	} else {
		var err error
		if res, err = explore.Resume(path, q.model, opts); err != nil {
			return &Response{Name: q.req.Name, Error: "resume: " + err.Error()}, http.StatusBadRequest
		}
		s.metrics.Add(ctrResumes, 1)
	}
	s.metrics.Add(ctrCompleted, 1)

	resp = s.buildResponse(q, id, res, outcomes, start)
	resp.Resumed = path != ""
	if cacheable(res) {
		s.cachePut(q.key, resp)
	}
	return resp, http.StatusOK
}

// cachePut stores a reproducible response and counts any LRU
// displacement the insert caused.
func (s *Server) cachePut(key string, resp *Response) {
	if evicted := s.cache.put(key, resp); evicted > 0 {
		s.metrics.Add(ctrCacheEvictions, uint64(evicted))
	}
}

func (s *Server) shedResponse(name string, err error) (*Response, int) {
	s.metrics.Add(ctrShed, 1)
	msg := "overloaded: worker pool and queue are full"
	if err == errDraining {
		msg = "draining: server is shutting down"
	} else if err == context.Canceled || err == context.DeadlineExceeded {
		return &Response{Name: name, Error: "request cancelled while queued"}, statusClientClosedRequest
	}
	return &Response{Name: name, Error: msg}, http.StatusServiceUnavailable
}

// panicResponse isolates a request-level panic: counted, spilled to a
// replayable .lit artifact, answered with 500. The server keeps
// serving.
func (s *Server) panicResponse(name, program, id string, v any) (*Response, int) {
	s.metrics.Add(ctrPanics, 1)
	resp := &Response{Name: name, Error: fmt.Sprintf("internal error: %v", v)}
	if s.cfg.SpillDir != "" && program != "" {
		art := fmt.Sprintf("// c11serve panic artifact %s\n// error: %v\n// replay: c11explore -f this-file\n%s", id, v, program)
		if err := os.WriteFile(filepath.Join(s.cfg.SpillDir, id+".lit"), []byte(art), 0o644); err == nil {
			resp.Artifact = id
		}
	}
	return resp, http.StatusInternalServerError
}

// ckExtra is the blob embedded in a drain/cut checkpoint: everything
// the restarted server needs to finish the query — the original
// request (program, model, budgets) and the outcomes admitted so far
// (checkpoints store fingerprints, not summaries, so without this the
// resumed leg would rebuild only a partial outcome set).
type ckExtra struct {
	Request  Request  `json:"request"`
	Outcomes []string `json:"outcomes"`
}

// wireCheckpoint arms cut-checkpointing for a search when a spill
// directory is configured: any cut (drain cancellation, budget,
// panic) persists the frontier plus the ckExtra blob under the
// request ID.
func (s *Server) wireCheckpoint(opts *explore.Options, id string, req *Request, outcomes map[string]bool, mu *sync.Mutex) {
	if s.cfg.SpillDir == "" {
		return
	}
	opts.CheckpointPath = filepath.Join(s.cfg.SpillDir, id+".ckpt")
	opts.CheckpointOnCut = true
	opts.CheckpointExtra = func() []byte {
		mu.Lock()
		keys := make([]string, 0, len(outcomes))
		for k := range outcomes {
			keys = append(keys, k)
		}
		mu.Unlock()
		sort.Strings(keys)
		blob, err := json.Marshal(ckExtra{Request: *req, Outcomes: keys})
		if err != nil {
			return nil
		}
		return blob
	}
}

// artifactID validates a client-supplied artifact name. IDs are hex
// (or the clock fallback), so anything else — and in particular
// anything with path structure — is rejected before it touches the
// filesystem.
var artifactID = regexp.MustCompile(`^[a-z0-9]{1,32}$`)

// executeResume continues a checkpointed search: the stored request
// is re-validated against current ceilings, the stored outcome set is
// preloaded, and the engine resumes from the persisted frontier. The
// finished result is cached under the same key a fresh identical
// query would use.
func (s *Server) executeResume(ctx context.Context, req *Request) (resp *Response, status int) {
	if s.cfg.SpillDir == "" {
		return &Response{Name: req.Name, Error: "resume unsupported: no spill directory configured"}, http.StatusBadRequest
	}
	if !artifactID.MatchString(req.Resume) {
		s.metrics.Add(ctrBadRequests, 1)
		return &Response{Name: req.Name, Error: "malformed artifact id"}, http.StatusBadRequest
	}
	path := filepath.Join(s.cfg.SpillDir, req.Resume+".ckpt")
	blob, err := explore.PeekExtra(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return &Response{Name: req.Name, Error: "unknown artifact " + req.Resume}, http.StatusNotFound
		}
		return &Response{Name: req.Name, Error: "load artifact: " + err.Error()}, http.StatusBadRequest
	}
	var extra ckExtra
	if err := json.Unmarshal(blob, &extra); err != nil {
		return &Response{Name: req.Name, Error: "artifact has no resumable request"}, http.StatusBadRequest
	}
	q, err := s.prepare(&extra.Request)
	if err != nil {
		return &Response{Name: req.Name, Error: "stored request invalid: " + err.Error()}, http.StatusBadRequest
	}
	if req.Name != "" {
		q.req.Name = req.Name
	}

	// Concurrent resumes of the same artifact share one search.
	resp, status, shared, abandoned := s.flights.do(ctx, "resume:"+req.Resume, func() (*Response, int) {
		return s.runQuery(ctx, q, req.Resume, path, extra.Outcomes)
	})
	if abandoned {
		return &Response{Name: req.Name, Error: "request cancelled"}, statusClientClosedRequest
	}
	if shared {
		cp := *resp
		return &cp, status
	}
	return resp, status
}

// buildResponse folds an engine result and outcome set into the JSON
// answer: verdict, expectation check, coverage, artifact, optional
// witness trace.
func (s *Server) buildResponse(q *query, id string, res explore.Result, outcomes map[string]bool, start time.Time) *Response {
	resp := &Response{
		Name:       q.req.Name,
		Model:      q.model.Name(),
		Verdict:    res.Verdict.String(),
		Stop:       res.Stop.String(),
		MaxEvents:  q.maxEvents,
		MaxStates:  q.maxStates,
		TimeoutMS:  int(q.timeout / time.Millisecond),
		Explored:   res.Explored,
		Terminated: res.Terminated,
		Frontier:   res.Frontier,
		Depth:      res.Depth,
		Truncated:  res.Truncated,
		Panics:     len(res.Panics),
		ElapsedMS:  time.Since(start).Milliseconds(),
	}
	for k := range outcomes {
		resp.Outcomes = append(resp.Outcomes, k)
	}
	sort.Strings(resp.Outcomes)

	switch res.Verdict {
	case explore.VerdictProved:
		// Conclusive: the outcome set is complete, so the allow/forbid
		// expectations are decidable.
		missing, reached := q.test.CheckOutcomes(q.model.Name(), outcomes)
		resp.MissingAllowed = missing
		resp.ReachedForbidden = reached
		pass := len(missing) == 0 && len(reached) == 0
		resp.Pass = &pass
	case explore.VerdictViolated:
		// A forbidden outcome was reached; that refutation is final
		// even though the outcome set may be partial.
		if res.Violation != nil {
			resp.ReachedForbidden = []string{res.Violation.Summarise(q.test.Observe)}
		}
		pass := false
		resp.Pass = &pass
		if q.req.Trace {
			resp.Trace = s.witness(q, res)
		}
	}

	// A cut search that wrote a checkpoint hands back the artifact ID
	// so the client (or a restarted server) can resume it.
	if s.cfg.SpillDir != "" && res.Stop != explore.StopNone && res.CheckpointErr == nil {
		if _, err := os.Stat(filepath.Join(s.cfg.SpillDir, id+".ckpt")); err == nil {
			resp.Artifact = id
			s.metrics.Add(ctrCheckpoints, 1)
		}
	}
	return resp
}

// witness renders the shortest trace to the violating configuration.
func (s *Server) witness(q *query, res explore.Result) string {
	if res.Violation == nil {
		return ""
	}
	want := res.Violation.Fingerprint()
	tr, ok := explore.FindTrace(
		q.model.New(q.test.Prog, q.test.Init),
		explore.Options{MaxEvents: q.maxEvents, MaxConfigs: q.maxStates},
		func(c model.Config) bool { return c.Terminated() && c.Fingerprint() == want },
	)
	if !ok {
		return ""
	}
	return tr.Describe()
}
