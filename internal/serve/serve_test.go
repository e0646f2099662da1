package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"splash2/internal/core"
	"splash2/internal/fault"
)

// newTestServer boots a splashd handler set over a fresh engine.
func newTestServer(t *testing.T, eo core.EngineOptions, so Options) (*Server, *httptest.Server) {
	t.Helper()
	if eo.Workers == 0 {
		eo.Workers = 4
	}
	engine, err := core.NewEngine(eo)
	if err != nil {
		t.Fatal(err)
	}
	s := New(context.Background(), engine, so)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// smallReq is a fast experiment: Table 1 over two programs at 2 procs.
func smallReq() core.Request {
	return core.Request{Kind: core.KindTable1, Apps: []string{"fft", "radix"}, Procs: 2, Scale: "default"}
}

func postJSON(t *testing.T, url string, req core.Request, hdr map[string]string) *http.Response {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hr, err := http.NewRequest(http.MethodPost, url+"/v1/experiments", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		hr.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, core.EngineOptions{}, Options{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
}

func TestExperimentBadRequests(t *testing.T) {
	_, ts := newTestServer(t, core.EngineOptions{}, Options{})
	cases := []core.Request{
		{},                                       // no kind
		{Kind: "figure9"},                        // unknown kind
		{Kind: "table1", Apps: []string{"doom"}}, // unknown app
		{Kind: "table1", Procs: 999},             // out of range
	}
	for _, req := range cases {
		resp := postJSON(t, ts.URL, req, nil)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%+v: status %d, want 400", req, resp.StatusCode)
		}
	}
	// Unknown JSON fields are rejected: a misspelled parameter must not
	// silently select defaults (that would cache-key the wrong spec).
	resp, err := http.Post(ts.URL+"/v1/experiments", "application/json",
		strings.NewReader(`{"kind":"table1","prcs":4}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field: status %d, want 400", resp.StatusCode)
	}
	// Method checks.
	resp, err = http.Head(ts.URL + "/v1/experiments")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("HEAD: status %d, want 405", resp.StatusCode)
	}
}

// TestUnknownParametersRejected pins both request forms to the fields
// the handler reads: a GET query naming anything else, a retired name
// such as mode included, is a 400 that names the parameter, as is a POST
// body carrying an unknown field. Every name the handler does read is
// accepted (If-None-Match: * answers 304 once the request canonicalizes,
// so nothing executes).
func TestUnknownParametersRejected(t *testing.T) {
	_, ts := newTestServer(t, core.EngineOptions{}, Options{})
	get := func(q string) (int, string) {
		t.Helper()
		hr, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/experiments?"+q, nil)
		if err != nil {
			t.Fatal(err)
		}
		hr.Header.Set("If-None-Match", "*")
		resp, err := http.DefaultClient.Do(hr)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	base := "kind=table1&apps=fft&procs=2"
	for _, bad := range []string{"mode=live", "prcos=8"} {
		code, body := get(base + "&" + bad)
		name := strings.SplitN(bad, "=", 2)[0]
		if code != http.StatusBadRequest || !strings.Contains(body, `"`+name+`"`) {
			t.Errorf("%s: status %d body %q, want 400 naming %q", bad, code, body, name)
		}
	}

	allowed := map[string]string{
		"kind": "table1", "apps": "fft", "procs": "2", "plist": "1,2",
		"scale": "sweep", "cacheSize": "65536", "sampleRate": "0.5",
		"sampleSeed": "3", "keepGoing": "1", "deadline": "30s", "stream": "1",
	}
	if len(allowed) != len(queryParams) {
		t.Errorf("handler accepts %d query parameters, test covers %d", len(queryParams), len(allowed))
	}
	for name, v := range allowed {
		if code, body := get(base + "&" + name + "=" + v); code != http.StatusNotModified {
			t.Errorf("%s=%s: status %d body %q, want 304", name, v, code, body)
		}
	}

	resp, err := http.Post(ts.URL+"/v1/experiments", "application/json",
		strings.NewReader(`{"kind":"table1","mode":"live"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("POST with mode: status %d, want 400", resp.StatusCode)
	}
}

// TestIfNoneMatchSkipsExecution pins the revalidation promise: a client
// holding a current copy is told so without the daemon running anything
// — even from cold, because the ETag is the request's content address,
// not a digest of a previously computed body.
func TestIfNoneMatchSkipsExecution(t *testing.T) {
	s, ts := newTestServer(t, core.EngineOptions{}, Options{})
	req := smallReq()
	resp := postJSON(t, ts.URL, req, map[string]string{"If-None-Match": req.ETag()})
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("status %d, want 304", resp.StatusCode)
	}
	if got := resp.Header.Get("ETag"); got != req.ETag() {
		t.Errorf("ETag = %q, want %q", got, req.ETag())
	}
	if c := s.engine.Counts(); c.Submitted != 0 {
		t.Errorf("revalidation submitted %d jobs, want 0", c.Submitted)
	}
	started, _, _, _, _ := s.co.counts()
	if started != 0 {
		t.Errorf("revalidation started %d flights, want 0", started)
	}
}

func TestExperimentRoundTripAndETag(t *testing.T) {
	_, ts := newTestServer(t, core.EngineOptions{}, Options{})
	req := smallReq()
	resp := postJSON(t, ts.URL, req, nil)
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	etag := resp.Header.Get("ETag")
	if etag != req.ETag() {
		t.Errorf("ETag = %q, want %q", etag, req.ETag())
	}
	var res core.Results
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatalf("body not Results JSON: %v", err)
	}
	if len(res.Table1) != 2 {
		t.Errorf("Table1 rows = %d, want 2", len(res.Table1))
	}
	// Warm revalidation round-trips the tag.
	resp = postJSON(t, ts.URL, req, map[string]string{"If-None-Match": etag})
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		t.Errorf("warm revalidation = %d, want 304", resp.StatusCode)
	}
}

// TestCoalescing pins singleflight: N concurrent identical requests,
// one flight, identical bodies. The start hook holds the flight open
// until every request has joined, so the test is deterministic rather
// than timing-dependent.
func TestCoalescing(t *testing.T) {
	s, ts := newTestServer(t, core.EngineOptions{}, Options{})
	const clients = 8
	gate := make(chan struct{})
	s.co.hookFlightStart = func(string) { <-gate }

	var wg sync.WaitGroup
	bodies := make([][]byte, clients)
	status := make([]int, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp := postJSON(t, ts.URL, smallReq(), map[string]string{"X-Client-ID": fmt.Sprintf("c%d", i)})
			defer resp.Body.Close()
			status[i] = resp.StatusCode
			bodies[i], _ = io.ReadAll(resp.Body)
		}(i)
	}
	// Release the flight once all stragglers have joined it.
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, coalesced, _, _, _ := s.co.counts()
		if coalesced >= clients-1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("requests never coalesced")
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()

	for i := 0; i < clients; i++ {
		if status[i] != http.StatusOK {
			t.Fatalf("client %d: status %d: %s", i, status[i], bodies[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Errorf("client %d body differs from client 0", i)
		}
	}
	started, coalesced, _, _, _ := s.co.counts()
	if started != 1 {
		t.Errorf("flights = %d, want 1", started)
	}
	if coalesced != clients-1 {
		t.Errorf("coalesced = %d, want %d", coalesced, clients-1)
	}
}

// TestDisconnectDoesNotCancelFlight pins per-request isolation the
// other way round: the client that started a flight hanging up must not
// cancel the execution other clients share.
func TestDisconnectDoesNotCancelFlight(t *testing.T) {
	s, ts := newTestServer(t, core.EngineOptions{}, Options{})
	started := make(chan struct{})
	gate := make(chan struct{})
	var once sync.Once
	s.co.hookFlightStart = func(string) {
		once.Do(func() { close(started) })
		<-gate
	}

	// Leader: starts the flight, disconnects while it is held open.
	body, _ := json.Marshal(smallReq())
	ctx, cancel := context.WithCancel(context.Background())
	hr, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/experiments", bytes.NewReader(body))
	hr.Header.Set("X-Client-ID", "leader")
	leaderErr := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(hr)
		if err == nil {
			resp.Body.Close()
		}
		leaderErr <- err
	}()
	<-started

	// Follower joins the same flight, then the leader vanishes.
	followerBody := make(chan []byte, 1)
	go func() {
		resp := postJSON(t, ts.URL, smallReq(), map[string]string{"X-Client-ID": "follower"})
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			b = nil
		}
		followerBody <- b
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, coalesced, _, _, _ := s.co.counts()
		if coalesced >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("follower never joined")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-leaderErr; err == nil {
		t.Fatal("leader request unexpectedly succeeded before release")
	}
	close(gate)

	b := <-followerBody
	if b == nil {
		t.Fatal("follower did not receive a result after leader disconnect")
	}
	var res core.Results
	if err := json.Unmarshal(b, &res); err != nil || len(res.Table1) != 2 {
		t.Fatalf("follower result damaged after leader disconnect: %v", err)
	}
	startedN, _, _, _, _ := s.co.counts()
	if startedN != 1 {
		t.Errorf("flights = %d, want 1 (no re-execution after disconnect)", startedN)
	}
}

// TestKeepGoingDegradedResponse maps PR 3 fault tolerance onto HTTP: a
// keep-going request that loses experiments still returns 200 with the
// surviving rows, carries the failure manifest in the body, and flags
// the degradation in a header.
func TestKeepGoingDegradedResponse(t *testing.T) {
	rules, err := fault.Parse("error@1=job:run fft*")
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, core.EngineOptions{Fault: fault.New(1, rules...)}, Options{})

	req := smallReq()
	req.KeepGoing = true
	resp := postJSON(t, ts.URL, req, nil)
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded status %d, want 200: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Splashd-Degraded"); got != "1" {
		t.Errorf("X-Splashd-Degraded = %q, want 1", got)
	}
	var res core.Results
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Failures) != 1 {
		t.Fatalf("manifest carries %d failures, want 1", len(res.Failures))
	}
	if res.Failures[0].Label == "" || res.Failures[0].Cause == "" {
		t.Errorf("manifest entry incomplete: %+v", res.Failures[0])
	}
	var surviving int
	for _, row := range res.Table1 {
		if row.Failed == "" {
			surviving++
		}
	}
	if surviving != 1 {
		t.Errorf("surviving rows = %d, want 1", surviving)
	}

	// Isolation: without keep-going (and without the fault firing again —
	// @1 is spent), the same engine serves a clean request untainted.
	resp = postJSON(t, ts.URL, smallReq(), nil)
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("clean follow-up status %d: %s", resp.StatusCode, body)
	}
	var clean core.Results
	if err := json.Unmarshal(body, &clean); err != nil {
		t.Fatal(err)
	}
	if len(clean.Failures) != 0 {
		t.Errorf("clean response inherited %d failures", len(clean.Failures))
	}
}

func TestPerClientCap(t *testing.T) {
	s, ts := newTestServer(t, core.EngineOptions{}, Options{PerClient: 1})
	gate := make(chan struct{})
	s.co.hookFlightStart = func(string) { <-gate }
	defer close(gate)

	// First request occupies client c1's whole budget.
	go func() {
		resp := postJSON(t, ts.URL, smallReq(), map[string]string{"X-Client-ID": "c1"})
		resp.Body.Close()
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if clients, _ := s.adm.counts(); clients >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first request never admitted")
		}
		time.Sleep(time.Millisecond)
	}

	// A different experiment from the same client sheds.
	other := core.Request{Kind: core.KindSync, Apps: []string{"fft"}, Procs: 2, Scale: "default"}
	resp := postJSON(t, ts.URL, other, map[string]string{"X-Client-ID": "c1"})
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("same-client status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if _, shed := s.adm.counts(); shed != 1 {
		t.Errorf("shedByClientCap = %d, want 1", shed)
	}
}

func TestQueueCapacity(t *testing.T) {
	s, ts := newTestServer(t, core.EngineOptions{}, Options{MaxInflight: 1, MaxQueue: 1, PerClient: 8})
	gate := make(chan struct{})
	s.co.hookFlightStart = func(string) { <-gate }
	defer close(gate)

	// Two distinct experiments fill the slot and the queue.
	kinds := []string{core.KindTable1, core.KindSync}
	for i, k := range kinds {
		req := core.Request{Kind: k, Apps: []string{"fft"}, Procs: 2, Scale: "default"}
		go func(i int, req core.Request) {
			resp := postJSON(t, ts.URL, req, map[string]string{"X-Client-ID": fmt.Sprintf("c%d", i)})
			resp.Body.Close()
		}(i, req)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, _, _, active, _ := s.co.counts()
		if active >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("pipeline never filled")
		}
		time.Sleep(time.Millisecond)
	}

	// A third distinct experiment finds the pipeline full.
	req := core.Request{Kind: core.KindSpeedups, Apps: []string{"fft"}, ProcList: []int{1, 2}, Scale: "default"}
	resp := postJSON(t, ts.URL, req, map[string]string{"X-Client-ID": "c9"})
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow status %d, want 429", resp.StatusCode)
	}
	// But joining a live flight adds no load: the queued experiment's
	// twin coalesces instead of shedding. It will block until the gate
	// opens, so only assert admission (no 429) via the coalesced counter.
	twin := core.Request{Kind: core.KindSync, Apps: []string{"fft"}, Procs: 2, Scale: "default"}
	go func() {
		resp := postJSON(t, ts.URL, twin, map[string]string{"X-Client-ID": "c10"})
		resp.Body.Close()
	}()
	for {
		_, coalesced, _, _, _ := s.co.counts()
		if coalesced >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("twin request did not coalesce while pipeline full")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestStreamingSSE(t *testing.T) {
	_, ts := newTestServer(t, core.EngineOptions{}, Options{})
	body, _ := json.Marshal(smallReq())
	hr, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/experiments?stream=1", bytes.NewReader(body))
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}

	events := parseSSE(t, resp.Body)
	var progress, result int
	var resultData []byte
	for _, ev := range events {
		switch ev.name {
		case "progress":
			progress++
		case "result":
			result++
			resultData = ev.data
		case "error":
			t.Fatalf("error event: %s", ev.data)
		}
	}
	if progress == 0 {
		t.Error("no progress events streamed")
	}
	if result != 1 {
		t.Fatalf("result events = %d, want 1", result)
	}

	// The reassembled result event is byte-identical to the plain
	// response for the same request.
	resp2 := postJSON(t, ts.URL, smallReq(), nil)
	plain, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if !bytes.Equal(resultData, bytes.TrimSuffix(plain, []byte("\n"))) {
		t.Error("streamed result differs from plain response body")
	}
}

// sseEvent is one parsed server-sent event.
type sseEvent struct {
	name string
	data []byte
}

func parseSSE(t *testing.T, r io.Reader) []sseEvent {
	t.Helper()
	var events []sseEvent
	var cur sseEvent
	var dataLines [][]byte
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if cur.name != "" || len(dataLines) > 0 {
				cur.data = bytes.Join(dataLines, []byte("\n"))
				events = append(events, cur)
			}
			cur = sseEvent{}
			dataLines = nil
		case strings.HasPrefix(line, "event: "):
			cur.name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			dataLines = append(dataLines, []byte(strings.TrimPrefix(line, "data: ")))
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return events
}

func TestDrain(t *testing.T) {
	s, ts := newTestServer(t, core.EngineOptions{}, Options{})
	if !s.BeginDrain(time.Second) {
		t.Fatal("idle server did not drain")
	}
	resp := postJSON(t, ts.URL, smallReq(), nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining experiments = %d, want 503", resp.StatusCode)
	}
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining healthz = %d, want 503", hresp.StatusCode)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, core.EngineOptions{}, Options{})
	// One real request so the counters move.
	resp := postJSON(t, ts.URL, smallReq(), nil)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	// And one warm twin: every job memo-served.
	resp = postJSON(t, ts.URL, smallReq(), nil)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var m Metrics
	if err := json.NewDecoder(mresp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.Engine.Executed == 0 {
		t.Error("metrics report no executed jobs")
	}
	if m.Engine.MemoHits == 0 {
		t.Error("warm twin produced no memo hits")
	}
	if m.Engine.HitRatio <= 0 || m.Engine.HitRatio >= 1 {
		t.Errorf("hitRatio = %v, want in (0,1)", m.Engine.HitRatio)
	}
	if m.Coalescing.Flights != 2 {
		t.Errorf("flights = %d, want 2", m.Coalescing.Flights)
	}
	ep, ok := m.Endpoints["experiments"]
	if !ok || ep.Count != 2 {
		t.Errorf("experiments endpoint stats = %+v", ep)
	}
}

// TestConcurrentMixedLoad exercises the full pipeline under -race:
// distinct and identical requests, streaming and plain, metrics reads
// interleaved.
func TestConcurrentMixedLoad(t *testing.T) {
	_, ts := newTestServer(t, core.EngineOptions{}, Options{MaxInflight: 2, MaxQueue: 8, PerClient: 32})
	reqs := []core.Request{
		smallReq(),
		{Kind: core.KindSync, Apps: []string{"fft"}, Procs: 2, Scale: "default"},
		{Kind: core.KindSpeedups, Apps: []string{"radix"}, ProcList: []int{1, 2}, Scale: "default"},
	}
	var wg sync.WaitGroup
	var failures atomic.Int64
	for i := 0; i < 24; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := reqs[i%len(reqs)]
			resp := postJSON(t, ts.URL, req, map[string]string{"X-Client-ID": fmt.Sprintf("c%d", i)})
			defer resp.Body.Close()
			io.Copy(io.Discard, resp.Body)
			if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusTooManyRequests {
				failures.Add(1)
			}
		}(i)
		if i%6 == 0 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, err := http.Get(ts.URL + "/metrics")
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}()
		}
	}
	wg.Wait()
	if n := failures.Load(); n > 0 {
		t.Errorf("%d requests failed with unexpected statuses", n)
	}
}

// TestSampledExperiment drills the working-set-sampled kind end to end:
// the GET query parameters select the sampling configuration, the body
// carries curves with confidence bands, and the rate is part of the
// request's content address so different rates neither share an ETag
// nor coalesce.
func TestSampledExperiment(t *testing.T) {
	_, ts := newTestServer(t, core.EngineOptions{}, Options{})
	get := func(q string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/experiments?" + q)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		return resp, body
	}

	base := "kind=working-set-sampled&apps=fft&procs=2&scale=default"
	resp, body := get(base + "&sampleRate=0.5&sampleSeed=3")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var res core.Results
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatalf("body not Results JSON: %v", err)
	}
	if len(res.Sampled) != 1 {
		t.Fatalf("Sampled curves = %d, want 1", len(res.Sampled))
	}
	c := res.Sampled[0]
	if c.App != "fft" || c.Rate != 0.5 || c.SampleSeed != 3 {
		t.Errorf("curve identity = %q rate %v seed %d", c.App, c.Rate, c.SampleSeed)
	}
	if len(c.MissRate) != len(c.CacheSizes) || len(c.BandLo) != len(c.CacheSizes) || len(c.BandHi) != len(c.CacheSizes) {
		t.Fatalf("curve shape: %d sizes, %d est, %d lo, %d hi",
			len(c.CacheSizes), len(c.MissRate), len(c.BandLo), len(c.BandHi))
	}
	for i := range c.CacheSizes {
		if c.BandLo[i] > c.MissRate[i] || c.MissRate[i] > c.BandHi[i] {
			t.Errorf("size %d: band [%v, %v] does not contain estimate %v",
				c.CacheSizes[i], c.BandLo[i], c.BandHi[i], c.MissRate[i])
		}
	}

	// A different rate is a different experiment: distinct ETag.
	resp2, body2 := get(base + "&sampleRate=0.25&sampleSeed=3")
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp2.StatusCode, body2)
	}
	if resp.Header.Get("ETag") == resp2.Header.Get("ETag") {
		t.Errorf("rates 0.5 and 0.25 share ETag %q", resp.Header.Get("ETag"))
	}

	// Malformed and out-of-range sampling parameters are rejected.
	for _, bad := range []string{"sampleRate=nope", "sampleRate=1.5", "sampleRate=-0.1", "sampleSeed=-1"} {
		if resp, _ := get(base + "&" + bad); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", bad, resp.StatusCode)
		}
	}
}

// TestBodiesIndependentOfFlightOrder: cold traffic and table3 requests
// for radiosity share its lock- and steal-ordered full-memory runs, and
// whichever flight happens to execute them, every daemon answers each
// kind with the same bytes — cold, and warm from the memo afterwards.
func TestBodiesIndependentOfFlightOrder(t *testing.T) {
	kinds := []string{core.KindTraffic, core.KindTable3}
	bodies := map[string][][]byte{}
	for h := 0; h < 3; h++ {
		_, ts := newTestServer(t, core.EngineOptions{}, Options{})
		for _, phase := range []string{"cold", "warm"} {
			got := make([][]byte, len(kinds))
			var wg sync.WaitGroup
			for i, kind := range kinds {
				wg.Add(1)
				go func() {
					defer wg.Done()
					q := "kind=" + kind + "&apps=radiosity&procs=8&plist=2,8&scale=sweep"
					resp, err := http.Get(ts.URL + "/v1/experiments?" + q)
					if err != nil {
						t.Error(err)
						return
					}
					defer resp.Body.Close()
					got[i], _ = io.ReadAll(resp.Body)
					if resp.StatusCode != http.StatusOK {
						t.Errorf("daemon %d, %s %s: status %d: %s", h, phase, kind, resp.StatusCode, got[i])
					}
				}()
			}
			wg.Wait()
			for i, kind := range kinds {
				bodies[kind] = append(bodies[kind], got[i])
			}
		}
	}
	for _, kind := range kinds {
		for i, b := range bodies[kind] {
			if !bytes.Equal(b, bodies[kind][0]) {
				t.Errorf("%s: body %d of %d (daemon %d, %s) differs from daemon 0's cold body",
					kind, i+1, len(bodies[kind]), i/2, []string{"cold", "warm"}[i%2])
			}
		}
	}
}
