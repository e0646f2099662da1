package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"testing"
	"time"

	"splash2/internal/core"
	"splash2/internal/fault"
)

// registered returns the flight held under req's key, or nil.
func registered(t *testing.T, s *Server, req core.Request) *flight {
	t.Helper()
	creq, err := req.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	s.co.mu.Lock()
	defer s.co.mu.Unlock()
	return s.co.flights[creq.Key().String()]
}

// fetchExperiment sends one request to the experiments endpoint: a POST
// of req when query is empty, else a GET of the query.
func fetchExperiment(t *testing.T, url string, req core.Request, query, client string) (int, []byte, http.Header) {
	t.Helper()
	hdr := map[string]string{"X-Client-ID": client}
	var resp *http.Response
	if query == "" {
		resp = postJSON(t, url, req, hdr)
	} else {
		hr, err := http.NewRequest(http.MethodGet, url+"/v1/experiments?"+query, nil)
		if err != nil {
			t.Fatal(err)
		}
		hr.Header.Set("X-Client-ID", client)
		if resp, err = http.DefaultClient.Do(hr); err != nil {
			t.Fatal(err)
		}
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body, resp.Header
}

// TestFinishedFlightAnswersRepeats: once a request completes, identical
// POSTs and the equivalent GET — plain, with a deadline (patience is not
// identity) and streamed — are answered from the finished flight, byte
// for byte with the same ETag, by many clients at once, and the engine
// does no work for any of them.
func TestFinishedFlightAnswersRepeats(t *testing.T) {
	s, ts := newTestServer(t, core.EngineOptions{}, Options{})
	req := smallReq()
	status, want, hdr := fetchExperiment(t, ts.URL, req, "", "first")
	if status != http.StatusOK {
		t.Fatalf("first request = %d: %s", status, want)
	}
	etag := hdr.Get("ETag")
	before := s.engine.Counts()

	queries := []string{
		"",
		"kind=table1&apps=fft,radix&procs=2&scale=default",
		"",
		"kind=table1&apps=fft,radix&procs=2&scale=default&deadline=1m",
	}
	const clients = 8
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			q := queries[i%len(queries)]
			status, body, hdr := fetchExperiment(t, ts.URL, req, q, fmt.Sprintf("c%d", i))
			if status != http.StatusOK || !bytes.Equal(body, want) || hdr.Get("ETag") != etag {
				t.Errorf("repeat %d (%q): status %d, ETag %q, %d body bytes; want 200, %q and the first body (%d bytes)",
					i, q, status, hdr.Get("ETag"), len(body), etag, len(want))
			}
		}(i)
	}
	wg.Wait()

	resp, err := http.Get(ts.URL + "/v1/experiments?stream=1&" + queries[1])
	if err != nil {
		t.Fatal(err)
	}
	var result []byte
	for _, ev := range parseSSE(t, resp.Body) {
		if ev.name == "result" {
			result = ev.data
		}
	}
	resp.Body.Close()
	if !bytes.Equal(result, bytes.TrimSuffix(want, []byte("\n"))) {
		t.Errorf("streamed repeat's result event differs from the first body")
	}

	after := s.engine.Counts()
	if after.Submitted != before.Submitted || after.Executed != before.Executed ||
		after.MemoHits != before.MemoHits || after.CacheHits != before.CacheHits {
		t.Errorf("repeats reached the engine: counts %+v after %+v", after, before)
	}
	started, coalesced, _, _, _ := s.co.counts()
	if started != 1 || coalesced != clients+1 {
		t.Errorf("flights = %d, coalesced = %d; want 1 and %d", started, coalesced, clients+1)
	}
	if n, size := s.co.retention(); n != 1 || size != int64(len(want)) {
		t.Errorf("retention = %d flights, %d bytes; want 1 and %d", n, size, len(want))
	}
}

// TestUnfinishedFlightsNotRetained: a flight that came back degraded,
// ran out its deadline or was cancelled is forgotten as it finishes, so
// the next request for its key starts a fresh flight — which, finishing
// cleanly, is the one retained.
func TestUnfinishedFlightsNotRetained(t *testing.T) {
	// fresh asks for req once more and checks that a second flight
	// answered it cleanly and stays registered.
	fresh := func(t *testing.T, s *Server, url string, req core.Request, old *flight) {
		t.Helper()
		if registered(t, s, req) != nil {
			t.Fatal("the first flight is still registered after it finished")
		}
		status, body, hdr := fetchExperiment(t, url, req, "", "again")
		if status != http.StatusOK || hdr.Get(headerDegraded) != "" {
			t.Fatalf("follow-up = %d, degraded %q: %s", status, hdr.Get(headerDegraded), body)
		}
		if started, _, _, _, _ := s.co.counts(); started != 2 {
			t.Errorf("flights = %d, want 2", started)
		}
		f := registered(t, s, req)
		if f == nil || f == old {
			t.Fatal("the clean follow-up flight is not registered")
		}
		if <-f.done; !f.retained {
			t.Error("the clean follow-up flight is not retained")
		}
		if n, _ := s.co.retention(); n != 1 {
			t.Errorf("retained = %d, want 1", n)
		}
	}

	t.Run("degraded", func(t *testing.T) {
		rules, err := fault.Parse("error@1=job:run fft*")
		if err != nil {
			t.Fatal(err)
		}
		s, ts := newTestServer(t, core.EngineOptions{Fault: fault.New(1, rules...)}, Options{})
		req := smallReq()
		req.KeepGoing = true
		status, body, hdr := fetchExperiment(t, ts.URL, req, "", "first")
		if status != http.StatusOK || hdr.Get(headerDegraded) != "1" {
			t.Fatalf("degraded request = %d, degraded %q: %s", status, hdr.Get(headerDegraded), body)
		}
		if n, _ := s.co.retention(); n != 0 {
			t.Errorf("retained = %d after a degraded flight, want 0", n)
		}
		fresh(t, s, ts.URL, req, nil)
	})

	t.Run("deadline", func(t *testing.T) {
		s, ts := newTestServer(t, core.EngineOptions{}, Options{})
		gate := make(chan struct{})
		var once sync.Once
		s.co.hookFlightStart = func(string) { once.Do(func() { <-gate }) }
		status, body, _ := fetchExperiment(t, ts.URL, smallReq(), "deadline=50ms&kind=table1&apps=fft,radix&procs=2&scale=default", "first")
		if status != http.StatusGatewayTimeout {
			t.Fatalf("doomed request = %d, want 504: %s", status, body)
		}
		doomed := registered(t, s, smallReq())
		if doomed == nil {
			t.Fatal("held flight is not registered")
		}
		<-doomed.ctx.Done()
		close(gate)
		<-doomed.done
		if !errors.Is(doomed.err, context.DeadlineExceeded) {
			t.Fatalf("doomed flight ended with %v, want its deadline", doomed.err)
		}
		fresh(t, s, ts.URL, smallReq(), doomed)
	})

	t.Run("cancelled", func(t *testing.T) {
		s, ts := newTestServer(t, core.EngineOptions{}, Options{})
		gate := make(chan struct{})
		var once sync.Once
		s.co.hookFlightStart = func(string) { once.Do(func() { <-gate }) }
		creq, err := smallReq().Canonical()
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(s.baseCtx)
		f, ok := s.co.join(ctx, creq, creq.Key().String())
		if !ok {
			t.Fatal("join refused on an idle server")
		}
		cancel()
		close(gate)
		<-f.done
		if !errors.Is(f.err, context.Canceled) {
			t.Fatalf("cancelled flight ended with %v, want cancellation", f.err)
		}
		fresh(t, s, ts.URL, smallReq(), f)
	})
}

// TestFinishedFlightsBounded: distinct keys are cheap to mint — the row
// order of three programs, with and without keep-going, is part of the
// key but not of the body's length — and each such flight is served from
// the memo, yet retention stays under its cap. Past the cap a clean
// flight is forgotten as it finishes, and the flights already held keep
// answering.
func TestFinishedFlightsBounded(t *testing.T) {
	s, ts := newTestServer(t, core.EngineOptions{}, Options{})
	orders := []string{"fft,radix,lu", "fft,lu,radix", "radix,fft,lu", "radix,lu,fft", "lu,fft,radix", "lu,radix,fft"}
	query := func(k int) string {
		return fmt.Sprintf("kind=table1&apps=%s&procs=2&scale=default&keepGoing=%d", orders[k%6], k/6)
	}
	status, body, _ := fetchExperiment(t, ts.URL, core.Request{}, query(0), "first")
	if status != http.StatusOK {
		t.Fatalf("first request = %d: %s", status, body)
	}
	limit := int64(3*len(body) + len(body)/2) // room for three bodies
	s.co.mu.Lock()
	s.co.retainLimit = limit
	s.co.mu.Unlock()
	executed := s.engine.Counts().Executed

	const keys = 12
	for k := 1; k < keys; k++ {
		if status, got, _ := fetchExperiment(t, ts.URL, core.Request{}, query(k), "flood"); status != http.StatusOK || len(got) != len(body) {
			t.Fatalf("key %d = %d with %d body bytes, want 200 with %d", k, status, len(got), len(body))
		}
		if _, size := s.co.retention(); size > limit {
			t.Fatalf("after key %d: retainedBytes = %d, over the cap %d", k, size, limit)
		}
	}
	if n, _ := s.co.retention(); n != 3 {
		t.Errorf("retained = %d, want the 3 bodies that fit", n)
	}
	if got := s.engine.Counts().Executed; got != executed {
		t.Errorf("the flood executed %d jobs; its flights should be served from the memo", got-executed)
	}

	started, _, _, _, _ := s.co.counts()
	if status, _, _ := fetchExperiment(t, ts.URL, core.Request{}, query(0), "again"); status != http.StatusOK {
		t.Errorf("repeat of a held key = %d", status)
	}
	if now, _, _, _, _ := s.co.counts(); now != started {
		t.Errorf("a repeat of a held key started a flight")
	}
	if status, _, _ := fetchExperiment(t, ts.URL, core.Request{}, query(keys-1), "again"); status != http.StatusOK {
		t.Errorf("repeat of a key past the cap = %d", status)
	}
	if now, _, _, _, _ := s.co.counts(); now != started+1 {
		t.Errorf("a repeat of a key past the cap started %d flights, want 1", now-started)
	}
	if n, size := s.co.retention(); n != 3 || size > limit {
		t.Errorf("retention = %d flights, %d bytes; want 3 under %d", n, size, limit)
	}
}

// TestOverlappingColdFlightsRetainWarmBodies: radiosity's traffic and
// table3 requests share its lock-ordered full-memory runs. Two cold
// flights released together, each execution stalled so that neither
// graph finds the other's runs memoized, both execute those runs; the
// bodies they retain must be the ones a warmed engine renders from its
// memo.
func TestOverlappingColdFlightsRetainWarmBodies(t *testing.T) {
	kinds := []string{core.KindTraffic, core.KindTable3}
	req := func(kind string) core.Request {
		return core.Request{Kind: kind, Apps: []string{"radiosity"}, Procs: 8, ProcList: []int{2, 8}, Scale: "sweep"}
	}
	stall := fault.New(1, fault.Rule{Pattern: "job:exec *", Action: fault.Delay, Delay: 50 * time.Millisecond})
	s, ts := newTestServer(t, core.EngineOptions{Fault: stall}, Options{})
	var started sync.WaitGroup
	started.Add(len(kinds))
	s.co.hookFlightStart = func(string) {
		started.Done()
		started.Wait() // both flights are about to build their graphs
	}
	cold := make([][]byte, len(kinds))
	var wg sync.WaitGroup
	for i, kind := range kinds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var status int
			status, cold[i], _ = fetchExperiment(t, ts.URL, req(kind), "", kind)
			if status != http.StatusOK {
				t.Errorf("cold %s = %d: %s", kind, status, cold[i])
			}
		}()
	}
	wg.Wait()

	warmed, err := core.NewEngine(core.EngineOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer warmed.Close()
	for i, kind := range kinds {
		creq, err := req(kind).Canonical()
		if err != nil {
			t.Fatal(err)
		}
		var warm bytes.Buffer
		for pass := 0; pass < 2; pass++ { // the second pass renders from the memo
			res, err := warmed.Do(context.Background(), creq, nil)
			if err != nil {
				t.Fatal(err)
			}
			warm.Reset()
			if err := res.WriteJSON(&warm); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(cold[i], warm.Bytes()) {
			t.Errorf("%s: the overlapping cold flight rendered a body the warmed engine does not", kind)
		}
		if f := registered(t, s, req(kind)); f == nil || !f.retained {
			t.Errorf("%s: the cold flight is not retained", kind)
		}
	}
	if got, alone := s.engine.Counts().Executed, warmed.Counts().Executed; got <= alone {
		t.Errorf("the overlapping flights executed %d jobs, a lone engine %d: they did not overlap", got, alone)
	}
}
