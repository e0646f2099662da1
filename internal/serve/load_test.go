package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"testing"
	"time"

	"splash2/internal/core"
	"splash2/internal/fault"
)

// TestLoadCoalescedSweeps is the daemon's load drill: hundreds of
// concurrent clients requesting a handful of overlapping experiment
// shapes. It pins the service's three load-bearing promises at once:
//
//   - far fewer flights run than requests arrive (coalescing works under
//     contention, not just in the two-client unit test);
//   - every response for a shape is byte-identical, and identical to
//     what a cold, serial, cache-less engine computes for the same
//     request — exactly the bytes `characterize -format json` prints,
//     since both are Results.WriteJSON of deterministic results;
//   - a revalidation wave afterwards is pure 304s with zero new work.
func TestLoadCoalescedSweeps(t *testing.T) {
	clients, perShape := 240, 60
	if testing.Short() {
		clients, perShape = 48, 12
	}

	shapes := []core.Request{
		{Kind: core.KindTable1, Apps: []string{"fft", "radix"}, Procs: 2, Scale: "default"},
		{Kind: core.KindSync, Apps: []string{"fft", "lu"}, Procs: 2, Scale: "default"},
		// Overlapping sweeps: both share the fft p=1 and p=2 executions
		// with each other and with the runs above, so the engine-level
		// dedup is exercised across flights, not only within one.
		{Kind: core.KindSpeedups, Apps: []string{"fft"}, ProcList: []int{1, 2}, Scale: "default"},
		{Kind: core.KindSpeedups, Apps: []string{"fft", "radix"}, ProcList: []int{1, 2, 4}, Scale: "default"},
	}
	if clients != perShape*len(shapes) {
		t.Fatalf("bad test geometry: %d clients over %d shapes", clients, len(shapes))
	}

	// The drill is about overlap, so each shape's first flight should
	// stay open while the clients send their requests. The engine keeps
	// getting faster while 240 concurrent connects on a small host spread
	// arrivals over hundreds of milliseconds, so without a floor most
	// clients would join an already finished flight and the drill would
	// say little about joining live ones under contention. A
	// deterministic delay on first job execution (memoized reruns don't
	// re-execute, so only the cold flights are held) widens the overlap
	// window without changing any result bytes.
	inj := fault.New(1, fault.Rule{Pattern: "job:*", Action: fault.Delay, Delay: 150 * time.Millisecond})
	s, ts := newTestServer(t, core.EngineOptions{Workers: 4, Fault: inj}, Options{
		MaxInflight: 2,
		// Queue generously: this drill measures coalescing, not load
		// shedding, so no request should see 429.
		MaxQueue:  len(shapes) * 4,
		PerClient: clients,
	})

	var wg sync.WaitGroup
	bodies := make([][]byte, clients)
	statuses := make([]int, clients)
	tr := &http.Transport{MaxIdleConnsPerHost: 64}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr}
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, _ := json.Marshal(shapes[i%len(shapes)])
			hr, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/experiments", bytes.NewReader(body))
			hr.Header.Set("X-Client-ID", fmt.Sprintf("load-%d", i))
			resp, err := client.Do(hr)
			if err != nil {
				statuses[i] = -1
				return
			}
			defer resp.Body.Close()
			statuses[i] = resp.StatusCode
			bodies[i], _ = io.ReadAll(resp.Body)
		}(i)
	}
	wg.Wait()

	for i, code := range statuses {
		if code != http.StatusOK {
			t.Fatalf("client %d: status %d: %s", i, code, bodies[i])
		}
	}

	// Every client of a shape saw the same bytes.
	for i := range bodies {
		if ref := bodies[i%len(shapes)]; !bytes.Equal(bodies[i], ref) {
			t.Errorf("client %d body differs from its shape's reference", i)
		}
	}

	// Coalescing did its job: one flight per shape. A request arriving
	// after its shape's flight finished joins the finished flight.
	started, coalesced, rejected, _, _ := s.co.counts()
	if rejected != 0 {
		t.Errorf("%d requests shed; the queue should have absorbed all leaders", rejected)
	}
	if started != int64(len(shapes)) {
		t.Errorf("flights = %d for %d shapes and %d requests; coalescing is not working", started, len(shapes), clients)
	}
	if started+coalesced != int64(clients) {
		t.Errorf("flights(%d) + coalesced(%d) != requests(%d)", started, coalesced, clients)
	}

	// Byte-identity with the CLI's cold path: a fresh serial engine with
	// no cache and no daemon produces the same JSON for each shape.
	for i, shape := range shapes {
		cold, err := core.NewEngine(core.EngineOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		res, err := cold.Do(context.Background(), shape, nil)
		cold.Close()
		if err != nil {
			t.Fatalf("cold shape %d: %v", i, err)
		}
		var buf bytes.Buffer
		if err := res.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), bodies[i]) {
			t.Errorf("shape %d: served body differs from cold serial run", i)
		}
	}

	// Revalidation wave: every client still holding its copy gets 304,
	// and the engine schedules nothing new.
	before := s.engine.Counts().Submitted
	for i, shape := range shapes {
		resp := postJSON(t, ts.URL, shape, map[string]string{"If-None-Match": core.ETag(shape.Key())})
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotModified {
			t.Errorf("revalidation of shape %d = %d, want 304", i, resp.StatusCode)
		}
	}
	if after := s.engine.Counts().Submitted; after != before {
		t.Errorf("revalidation wave submitted %d jobs", after-before)
	}
}
