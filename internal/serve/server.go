// Package serve implements splashd's HTTP layer: characterization as a
// service. One shared core.Engine executes every request; the layer in
// front of it turns the engine's determinism and content-addressed
// caching into HTTP semantics:
//
//   - Requests are canonicalized and content-addressed (core.Request.Key),
//     so the response ETag is known before any work happens. A client
//     revalidating with If-None-Match gets 304 with zero execution.
//   - Concurrent identical requests coalesce onto a single execution
//     (singleflight keyed by the same hash as the result cache); each
//     extra client costs a subscription, not a simulation.
//   - Admission control bounds the pipeline: a fixed number of executing
//     flights, a bounded queue behind them, a per-client concurrency cap.
//     Beyond those, requests shed with 429 + Retry-After rather than
//     degrade everyone. BeginDrain flips new experiments to 503 while
//     live flights finish (graceful SIGTERM).
//   - Progress streams as server-sent events fed by the runner's
//     per-graph progress hooks; requests are isolated scopes (PR 3 fault
//     tolerance per request), so one client's keep-going failures never
//     leak into another's response.
//
// The non-streaming response body is byte-identical to
// `characterize -format json` for the equivalent flags: both are
// core.Results.WriteJSON of the same deterministic results.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"splash2/internal/cli"
	"splash2/internal/core"

	// The daemon serves the full suite; pull in every program's
	// registration.
	_ "splash2/internal/apps/all"
)

// Options configures a Server.
type Options struct {
	// MaxInflight bounds concurrently executing flights (≤ 0 selects 4).
	MaxInflight int
	// MaxQueue bounds flights admitted but waiting for an execution slot
	// (≤ 0 selects 16). Requests beyond MaxInflight+MaxQueue shed with
	// 429 unless they coalesce onto a live flight.
	MaxQueue int
	// PerClient bounds one client's concurrent requests (≤ 0 selects 8).
	PerClient int
}

// maxBodyBytes bounds the JSON request body: experiment specs are tiny.
const maxBodyBytes = 1 << 20

// Server is splashd's handler set. Create with New, mount via Handler.
type Server struct {
	engine *core.Engine
	co     *coalescer
	adm    *admission
	stats  *endpointStats

	baseCtx   context.Context // flights run on this, not on request contexts
	drain     context.CancelFunc
	draining  chan struct{} // closed by BeginDrain
	markDrain func()

	// deadline504 counts requests answered 504 because their deadline
	// expired before a result existed (metrics).
	deadline504 atomic.Int64
}

// New builds a server around engine. ctx is the daemon's base context:
// flights run on it (detached from any single client), and cancelling
// it aborts them; use BeginDrain for a graceful stop instead.
func New(ctx context.Context, engine *core.Engine, o Options) *Server {
	if o.MaxInflight <= 0 {
		o.MaxInflight = 4
	}
	if o.MaxQueue <= 0 {
		o.MaxQueue = 16
	}
	if o.PerClient <= 0 {
		o.PerClient = 8
	}
	if ctx == nil {
		ctx = context.Background()
	}
	flightCtx, cancel := context.WithCancel(ctx)
	s := &Server{
		engine:   engine,
		co:       newCoalescer(engine, o.MaxInflight, o.MaxQueue),
		adm:      newAdmission(o.PerClient),
		stats:    newEndpointStats(),
		baseCtx:  flightCtx,
		drain:    cancel,
		draining: make(chan struct{}),
	}
	return s
}

// Handler returns the route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.instrument("healthz", s.handleHealthz))
	mux.HandleFunc("/v1/experiments", s.instrument("experiments", s.handleExperiments))
	mux.HandleFunc("/metrics", s.instrument("metrics", s.handleMetrics))
	return mux
}

// BeginDrain stops admitting experiment work (new requests get 503 +
// Connection: close) and waits until live flights finish, up to
// timeout; it reports whether the pipeline drained completely. Flights
// still running at the deadline are cancelled.
func (s *Server) BeginDrain(timeout time.Duration) bool {
	select {
	case <-s.draining:
	default:
		close(s.draining)
	}
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if s.co.idle() {
			return true
		}
		time.Sleep(10 * time.Millisecond)
	}
	s.drain() // abandon stragglers
	return s.co.idle()
}

func (s *Server) isDraining() bool {
	select {
	case <-s.draining:
		return true
	default:
		return false
	}
}

// instrument wraps a handler with latency/status accounting.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h(sw, r)
		s.stats.observe(endpoint, sw.status, sw.Header().Get(headerDegraded) != "", time.Since(start))
	}
}

// statusWriter records the status code a handler wrote.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the wrapped writer so SSE streaming works through
// the instrumentation layer.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.isDraining() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var m Metrics
	c := s.engine.Counts()
	m.Engine.Executed = c.Executed
	m.Engine.CacheHits = c.CacheHits
	m.Engine.MemoHits = c.MemoHits
	m.Engine.Retries = c.Retried
	m.Engine.Failures = c.Failed
	m.Engine.Skipped = c.Skipped
	if served := c.CacheHits + c.MemoHits; served+c.Executed > 0 {
		m.Engine.HitRatio = float64(served) / float64(served+c.Executed)
	}
	ms := s.engine.MemoStats()
	m.Engine.MemoEntries = ms.MemoEntries
	m.Engine.FailureLog = ms.FailureLog
	m.Engine.FailuresLost = ms.FailuresLost

	m.Lease.Acquired = c.LeaseAcquired
	m.Lease.Shared = c.LeaseShared
	m.Lease.Takeovers = c.LeaseTakeovers
	if j := s.engine.Journal(); j != nil {
		m.Journal.Enabled = true
		m.Journal.RunID = j.RunID()
		m.Journal.Appended = j.Appended()
	}
	m.Deadlines.Exceeded = s.deadline504.Load()

	started, coalesced, rejected, active, executing := s.co.counts()
	m.Coalescing.Flights = started
	m.Coalescing.Coalesced = coalesced
	m.Coalescing.Rejected = rejected
	m.Queue.Active = active
	m.Queue.Executing = executing
	if q := active - executing; q > 0 {
		m.Queue.Queued = q
	}
	m.Queue.Clients, m.Queue.ShedByCap = s.adm.counts()
	m.Queue.Draining = s.isDraining()
	m.Endpoints = s.stats.snapshot()

	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(m)
}

// Response headers specific to splashd.
const (
	// headerDegraded carries the failure count of a keep-going response
	// whose body includes a failure manifest.
	headerDegraded = "X-Splashd-Degraded"
	// headerDeadline carries the client's request deadline as a Go
	// duration ("30s", "2m"); equivalent to the timeoutMs body field or
	// the deadline query parameter. The deadline does not change the
	// request's content address, so impatient and patient clients still
	// coalesce onto one flight.
	headerDeadline = "X-Splashd-Deadline"
)

// errorBody is the JSON error envelope for experiment errors that carry
// CLI exit-taxonomy context (deadline expiry, cancellation).
type errorBody struct {
	Error string `json:"error"`
	// Exit is the code the equivalent CLI run would exit with
	// (internal/cli taxonomy: 0 ok, 1 usage, 2 degraded, 3 runtime).
	Exit int `json:"exit"`
}

// writeError renders err as a JSON error envelope with the given status.
func writeError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(errorBody{Error: "splashd: " + err.Error(), Exit: cli.ExitCode(err)})
}

func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodPost {
		w.Header().Set("Allow", "GET, POST")
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	req, err := parseRequest(r)
	if err != nil {
		http.Error(w, "splashd: "+err.Error(), http.StatusBadRequest)
		return
	}
	creq, err := req.Canonical()
	if err != nil {
		http.Error(w, "splashd: "+err.Error(), http.StatusBadRequest)
		return
	}

	// Revalidation first: the ETag is the content address of the
	// canonical request, and results are deterministic, so a matching
	// If-None-Match means the client's copy is current — no admission,
	// no execution, no bytes.
	etag := creq.ETag()
	w.Header().Set("ETag", etag)
	if etagMatch(r.Header.Get("If-None-Match"), etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}

	if s.isDraining() {
		w.Header().Set("Connection", "close")
		http.Error(w, "splashd: draining", http.StatusServiceUnavailable)
		return
	}

	// Per-client cap covers the whole request lifetime, subscriptions
	// included; the flight pipeline cap is applied inside join.
	release, ok := s.adm.acquire(clientID(r))
	if !ok {
		w.Header().Set("Retry-After", "1")
		http.Error(w, "splashd: client concurrency limit", http.StatusTooManyRequests)
		return
	}
	defer release()

	f, ok := s.co.join(s.baseCtx, creq)
	if !ok {
		w.Header().Set("Retry-After", "2")
		http.Error(w, "splashd: at capacity", http.StatusTooManyRequests)
		return
	}

	if wantsStream(r) {
		s.streamFlight(w, r, f)
		return
	}

	// A request deadline bounds this client's wait, not just the
	// execution: a joiner whose deadline expires while the flight is
	// still queued or executing gets the documented 504 immediately (the
	// flight itself continues for more patient subscribers).
	var doomed <-chan time.Time
	if d := creq.Deadline(); d > 0 {
		t := time.NewTimer(d)
		defer t.Stop()
		doomed = t.C
	}
	select {
	case <-f.done:
	case <-doomed:
		s.deadline504.Add(1)
		writeError(w, http.StatusGatewayTimeout,
			fmt.Errorf("deadline %v exceeded before the experiment finished: %w", creq.Deadline(), context.DeadlineExceeded))
		return
	case <-r.Context().Done():
		// Client gone. The flight keeps running for its other
		// subscribers (and for the cache); nothing to write.
		return
	}
	s.writeResult(w, f)
}

// writeResult renders a finished flight as the non-streaming response.
func (s *Server) writeResult(w http.ResponseWriter, f *flight) {
	if f.err != nil {
		switch {
		case errors.Is(f.err, context.DeadlineExceeded):
			// The flight's own deadline expired (request deadline mapped
			// onto the flight context): doomed work was cancelled, not
			// left to wedge an execution slot.
			s.deadline504.Add(1)
			writeError(w, http.StatusGatewayTimeout, f.err)
		case errors.Is(f.err, context.Canceled):
			writeError(w, http.StatusServiceUnavailable, f.err)
		default:
			http.Error(w, "splashd: "+f.err.Error(), http.StatusInternalServerError)
		}
		return
	}
	if f.degraded > 0 {
		w.Header().Set(headerDegraded, strconv.Itoa(f.degraded))
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(f.body)))
	w.Write(f.body)
}

// streamFlight serves one request as an SSE stream: progress events as
// the flight's jobs complete, then a terminal result (the same JSON
// bytes as the plain response) or error event.
func (s *Server) streamFlight(w http.ResponseWriter, r *http.Request, f *flight) {
	events, cancel := f.subscribe()
	defer cancel()
	sse, ok := newSSE(w)
	if !ok {
		http.Error(w, "splashd: transport cannot stream", http.StatusNotImplemented)
		return
	}
	for {
		select {
		case ev := <-events:
			data, _ := json.Marshal(ev)
			sse.event("progress", data)
		case <-f.done:
			// Drain events buffered before completion so clients see the
			// full progress record.
			for {
				select {
				case ev := <-events:
					data, _ := json.Marshal(ev)
					sse.event("progress", data)
					continue
				default:
				}
				break
			}
			if f.err != nil {
				sse.event("error", []byte(f.err.Error()))
			} else {
				if f.degraded > 0 {
					sse.event("degraded", []byte(strconv.Itoa(f.degraded)))
				}
				sse.event("result", f.body)
			}
			return
		case <-r.Context().Done():
			return // subscriber gone; flight continues
		}
	}
}

// wantsStream reports whether the client asked for SSE.
func wantsStream(r *http.Request) bool {
	if r.URL.Query().Get("stream") == "1" {
		return true
	}
	return strings.Contains(r.Header.Get("Accept"), "text/event-stream")
}

// etagMatch implements If-None-Match for strong validators: a list of
// quoted tags or the wildcard.
func etagMatch(header, etag string) bool {
	if header == "" {
		return false
	}
	if header == "*" {
		return true
	}
	for _, cand := range strings.Split(header, ",") {
		cand = strings.TrimSpace(cand)
		cand = strings.TrimPrefix(cand, "W/")
		if cand == etag {
			return true
		}
	}
	return false
}

// queryParams are the names a GET request may carry: exactly those
// parseRequest and wantsStream read. Like unknown POST fields, anything
// else is rejected rather than silently answered with defaults.
var queryParams = map[string]bool{
	"kind": true, "apps": true, "procs": true, "plist": true, "scale": true,
	"cacheSize": true, "sampleRate": true, "sampleSeed": true,
	"keepGoing": true, "deadline": true, "stream": true,
}

// parseRequest decodes an experiment spec from a POST JSON body or GET
// query parameters.
func parseRequest(r *http.Request) (core.Request, error) {
	var req core.Request
	if r.Method == http.MethodPost {
		dec := json.NewDecoder(io.LimitReader(r.Body, maxBodyBytes))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			return req, fmt.Errorf("bad request body: %v", err)
		}
		return req, applyDeadlineHeader(r, &req)
	}
	q := r.URL.Query()
	var unknown []string
	for name := range q {
		if !queryParams[name] {
			unknown = append(unknown, strconv.Quote(name))
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return req, fmt.Errorf("unknown query parameter %s", strings.Join(unknown, ", "))
	}
	req.Kind = q.Get("kind")
	if v := q.Get("apps"); v != "" {
		req.Apps = strings.Split(v, ",")
	}
	var err error
	if v := q.Get("procs"); v != "" {
		if req.Procs, err = strconv.Atoi(v); err != nil {
			return req, fmt.Errorf("bad procs %q", v)
		}
	}
	if v := q.Get("plist"); v != "" {
		if req.ProcList, err = cli.ParseProcList(v); err != nil {
			return req, err
		}
	}
	req.Scale = q.Get("scale")
	if v := q.Get("cacheSize"); v != "" {
		if req.CacheSize, err = strconv.Atoi(v); err != nil {
			return req, fmt.Errorf("bad cacheSize %q", v)
		}
	}
	if v := q.Get("sampleRate"); v != "" {
		if req.SampleRate, err = strconv.ParseFloat(v, 64); err != nil {
			return req, fmt.Errorf("bad sampleRate %q", v)
		}
	}
	if v := q.Get("sampleSeed"); v != "" {
		if req.SampleSeed, err = strconv.ParseUint(v, 10, 64); err != nil {
			return req, fmt.Errorf("bad sampleSeed %q", v)
		}
	}
	if v := q.Get("keepGoing"); v == "1" || v == "true" {
		req.KeepGoing = true
	}
	if v := q.Get("deadline"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d < 0 {
			return req, fmt.Errorf("bad deadline %q", v)
		}
		req.TimeoutMillis = d.Milliseconds()
	}
	return req, applyDeadlineHeader(r, &req)
}

// applyDeadlineHeader folds the X-Splashd-Deadline header into the
// request. The header wins over a body/query deadline: it is the
// transport-level knob a proxy or impatient client sets without
// rewriting the experiment spec.
func applyDeadlineHeader(r *http.Request, req *core.Request) error {
	v := r.Header.Get(headerDeadline)
	if v == "" {
		return nil
	}
	d, err := time.ParseDuration(v)
	if err != nil || d < 0 {
		return fmt.Errorf("bad %s %q", headerDeadline, v)
	}
	req.TimeoutMillis = d.Milliseconds()
	return nil
}
