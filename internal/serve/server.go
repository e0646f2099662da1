// Package serve implements splashd's HTTP layer: characterization as a
// service. One shared core.Engine executes every request; the layer in
// front of it turns the engine's determinism and content-addressed
// caching into HTTP semantics:
//
//   - Requests are canonicalized and content-addressed (core.Request.Key),
//     so the response ETag is known before any work happens. A client
//     revalidating with If-None-Match gets 304 with zero execution.
//   - Equivalent requests (equal in every field their kind reads)
//     coalesce onto a single flight, live or finished (singleflight
//     keyed by the same hash as the result cache): while it runs each
//     extra client costs a subscription, not a simulation, and once it
//     finished cleanly a repeat is answered from the bytes it rendered,
//     with no engine work at all. A repeat of a request form it
//     already answered (the same method, raw query, deadline header and
//     POST body) is found by those bytes before anything parses them:
//     one map read, no Canonical and no key hash.
//   - Admission control bounds the pipeline: a fixed number of executing
//     flights, a bounded queue behind them, a per-client concurrency cap.
//     Beyond those, requests shed with 429 + Retry-After rather than
//     degrade everyone. BeginDrain flips new experiments to 503 while
//     live flights finish (graceful SIGTERM).
//   - Progress streams as server-sent events fed by the runner's
//     per-graph progress hooks; each request is one graph with its own
//     failure policy and manifest, so one client's keep-going failures
//     never leak into another's response.
//
// The non-streaming response body is byte-identical to
// `characterize -format json` for the equivalent flags: both are
// core.Results.WriteJSON of the same deterministic results.
package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"splash2/internal/cli"
	"splash2/internal/core"
	"splash2/internal/runner"

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
	// 429 unless they coalesce onto a live or finished flight.
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

	baseCtx  context.Context // flights run on this, not on request contexts
	drain    context.CancelFunc
	draining chan struct{} // closed by BeginDrain

	// deadline504 counts requests answered 504 because their deadline
	// expired before a result existed (metrics).
	deadline504 atomic.Int64

	// gcReserve (8 MiB) is never read or written, so its pages stay
	// unbacked. A hit allocates a few KB, and an answering daemon's live
	// heap can be about 1 MB, where the collector's goal is its 4 MB
	// minimum and it would run every few hundred requests. Held, the
	// reserve raises the goal by twice its size.
	gcReserve []byte
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
	return &Server{
		engine:    engine,
		co:        newCoalescer(engine, o.MaxInflight, o.MaxQueue),
		adm:       newAdmission(o.PerClient),
		stats:     newEndpointStats(),
		baseCtx:   flightCtx,
		drain:     cancel,
		draining:  make(chan struct{}),
		gcReserve: make([]byte, 8<<20),
	}
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
	m.Engine.Failures = c.Failed
	m.Engine.Skipped = c.Skipped
	if served := c.CacheHits + c.MemoHits; served+c.Executed > 0 {
		m.Engine.HitRatio = float64(served) / float64(served+c.Executed)
	}
	m.Engine.MemoEntries = s.engine.MemoEntries()

	m.Lease.Acquired = c.LeaseAcquired
	m.Lease.Shared = c.LeaseShared
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
	m.Coalescing.Retained, m.Coalescing.RetainedBytes = s.co.retention()
	m.Coalescing.Aliases, m.Coalescing.AliasBytes = s.co.aliasing()
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
	var body []byte
	if r.Method == http.MethodPost {
		var err error
		if body, err = io.ReadAll(io.LimitReader(r.Body, maxBodyBytes)); err != nil {
			http.Error(w, "splashd: "+badBody(err).Error(), http.StatusBadRequest)
			return
		}
	}

	// A repeated request form is answered by the retained flight it was
	// answered from before: its bytes are everything parseRequest,
	// Canonical and Key read, so there is nothing to derive again. The
	// form does not hold the Accept header, so an SSE request never takes
	// this path (no stream is ever aliased).
	var buf [256]byte
	form := appendRequestForm(buf[:0], r, body)
	sse := strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	if a, ok := s.co.lookup(form); ok && !sse {
		w.Header().Set("ETag", a.etag)
		if etagMatch(r.Header.Get("If-None-Match"), a.etag) {
			w.WriteHeader(http.StatusNotModified)
			return
		}
		release, ok := s.admit(w, r)
		if !ok {
			return
		}
		defer release()
		s.co.hit()
		s.writeResult(w, a.f)
		return
	}

	query := r.URL.Query()
	req, err := parseRequest(r, query, body)
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
	// no execution, no bytes. The key is hashed once and names the
	// flight too.
	k := creq.Key()
	etag := core.ETag(k)
	w.Header().Set("ETag", etag)
	if etagMatch(r.Header.Get("If-None-Match"), etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}

	release, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer release()

	f, ok := s.co.join(s.baseCtx, creq, k.String())
	if !ok {
		w.Header().Set("Retry-After", "2")
		http.Error(w, "splashd: at capacity", http.StatusTooManyRequests)
		return
	}

	if sse || query.Get("stream") == "1" {
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
	if f.err == nil && f.degraded == 0 {
		s.co.alias(form, f, etag)
	}
}

// admit turns away a request the daemon will not answer now: 503 while
// draining, 429 when its client is at the per-client cap, which covers
// the whole request lifetime, subscriptions included (the flight
// pipeline cap is applied inside join). On ok the caller holds a place
// under the cap until it calls release.
func (s *Server) admit(w http.ResponseWriter, r *http.Request) (release func(), ok bool) {
	if s.isDraining() {
		w.Header().Set("Connection", "close")
		http.Error(w, "splashd: draining", http.StatusServiceUnavailable)
		return nil, false
	}
	if release, ok = s.adm.acquire(clientID(r)); !ok {
		w.Header().Set("Retry-After", "1")
		http.Error(w, "splashd: client concurrency limit", http.StatusTooManyRequests)
	}
	return release, ok
}

// appendRequestForm appends r's raw form to dst: what parseRequest reads
// from it, and so all its answer depends on. That is the method, the raw
// query, the X-Splashd-Deadline header and, for a POST, the body bytes
// read. The method is an HTTP token, so a NUL ends it; the query and
// the header each carry their length in front; the body runs to the end.
// Two requests with equal forms parse to the same request.
func appendRequestForm(dst []byte, r *http.Request, body []byte) []byte {
	dst = append(dst, r.Method...)
	dst = append(dst, 0)
	dst = binary.AppendUvarint(dst, uint64(len(r.URL.RawQuery)))
	dst = append(dst, r.URL.RawQuery...)
	deadline := r.Header.Get(headerDeadline)
	dst = binary.AppendUvarint(dst, uint64(len(deadline)))
	dst = append(dst, deadline...)
	return append(dst, body...)
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
	progress := func(ev runner.ProgressEvent) {
		data, _ := json.Marshal(ev)
		sse.event("progress", data)
	}
	for {
		select {
		case ev := <-events:
			progress(ev)
		case <-f.done:
			// Drain events buffered before completion so clients see the
			// full progress record.
			for len(events) > 0 {
				progress(<-events)
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

// badBody is the 400 error for a POST body that cannot be read or
// decoded.
func badBody(err error) error { return fmt.Errorf("bad request body: %v", err) }

// parseRequest decodes an experiment spec from a POST's JSON body, read
// up to maxBodyBytes, or the GET query parameters q, then applies the
// X-Splashd-Deadline header. The header wins over a body or query
// deadline: it is the transport-level knob a proxy or impatient client
// sets without rewriting the spec. A query names fields by their
// core.QueryNames, parsed by core's request table, plus stream, which
// handleExperiments reads; like an unknown POST field, any other name is
// rejected rather than silently answered with defaults, and an empty
// value leaves its field unset.
func parseRequest(r *http.Request, q url.Values, body []byte) (core.Request, error) {
	var req core.Request
	if r.Method == http.MethodPost {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			return req, badBody(err)
		}
	} else {
		names := make([]string, 0, len(q))
		for name := range q {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			switch v := q[name]; {
			case name != "stream" && !slices.Contains(core.QueryNames(), name):
				return req, fmt.Errorf("unknown query parameter %q", name)
			case len(v) > 1:
				// One value per name: with two, one would silently win.
				return req, fmt.Errorf("query parameter %q given more than once", name)
			case name != "stream" && v[0] != "":
				if err := req.Set(name, v[0]); err != nil {
					return req, err
				}
			}
		}
	}
	if v := r.Header.Get(headerDeadline); v != "" && req.Set("deadline", v) != nil {
		return req, fmt.Errorf("bad %s %q", headerDeadline, v)
	}
	return req, nil
}
