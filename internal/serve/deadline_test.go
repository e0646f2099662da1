package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"splash2/internal/cli"
	"splash2/internal/core"
)

// TestDeadlineExceededReturns504: a client whose deadline lapses while
// its flight executes gets the documented JSON 504 immediately — and the
// server is not wedged: the flight finishes for whoever is patient, a
// later request succeeds and a drain completes.
func TestDeadlineExceededReturns504(t *testing.T) {
	s, ts := newTestServer(t, core.EngineOptions{}, Options{})
	gate := make(chan struct{})
	s.co.hookFlightStart = func(string) { <-gate }

	start := time.Now()
	resp := postJSON(t, ts.URL, smallReq(), map[string]string{headerDeadline: "100ms"})
	if resp.StatusCode != http.StatusGatewayTimeout {
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("doomed request = %d, want 504 (body: %s)", resp.StatusCode, b)
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Errorf("504 took %v; the deadline did not cut the wait", waited)
	}
	var eb errorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatalf("504 body is not the JSON error shape: %v", err)
	}
	resp.Body.Close()
	if eb.Exit != cli.ExitRuntime {
		t.Errorf("504 exit taxonomy = %d, want %d", eb.Exit, cli.ExitRuntime)
	}
	if eb.Error == "" {
		t.Error("504 body carries no error text")
	}

	// Release the flight (the closed gate no longer blocks anyone); the
	// server must remain fully usable.
	close(gate)
	resp = postJSON(t, ts.URL, smallReq(), nil)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("request after a 504 = %d, want 200", resp.StatusCode)
	}

	// The 504 is visible in /metrics and drain is not wedged.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var m Metrics
	if err := json.NewDecoder(mresp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	mresp.Body.Close()
	if m.Deadlines.Exceeded == 0 {
		t.Error("metrics do not count the exceeded deadline")
	}
	if !s.BeginDrain(10 * time.Second) {
		t.Error("drain wedged after a deadline 504")
	}
}

// TestPatientRequestDoesNotJoinDoomedFlight: while a flight whose leader
// deadline has expired is still registered (held before its engine call),
// a follow-up request for the same experiment must start a fresh flight
// and succeed, not inherit the doomed flight's 504 — and the doomed
// flight's exit must not unregister its replacement, which finished
// cleanly and answers every later request for the key.
func TestPatientRequestDoesNotJoinDoomedFlight(t *testing.T) {
	s, ts := newTestServer(t, core.EngineOptions{}, Options{})
	gate := make(chan struct{})
	var flights atomic.Int32
	s.co.hookFlightStart = func(string) {
		if flights.Add(1) == 1 {
			<-gate // the doomed flight
		}
	}

	resp := postJSON(t, ts.URL, smallReq(), map[string]string{headerDeadline: "50ms"})
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("doomed request = %d, want 504", resp.StatusCode)
	}
	creq, err := smallReq().Canonical()
	if err != nil {
		t.Fatal(err)
	}
	key := creq.Key().String()
	s.co.mu.Lock()
	doomed := s.co.flights[key]
	s.co.mu.Unlock()
	if doomed == nil {
		t.Fatal("held flight is not registered")
	}
	<-doomed.ctx.Done() // the client's timer and the flight's are separate

	resp = postJSON(t, ts.URL, smallReq(), nil)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("follow-up while the doomed flight is held = %d, want 200", resp.StatusCode)
	}

	// The replacement is finished and registered; let the doomed flight
	// exit under it.
	replacement, ok := s.co.join(s.baseCtx, creq, key)
	if !ok || replacement == doomed {
		t.Fatalf("join after the doomed flight = %v (ok=%v), want its replacement", replacement, ok)
	}
	close(gate)
	<-doomed.done
	s.co.mu.Lock()
	registered := s.co.flights[key]
	s.co.mu.Unlock()
	if registered != replacement {
		t.Error("the doomed flight's exit unregistered its replacement")
	}
	<-replacement.done
	if replacement.err != nil {
		t.Errorf("replacement flight failed: %v", replacement.err)
	}
	if n := flights.Load(); n != 2 {
		t.Errorf("%d flights reached the engine, want 2 (the doomed one and its replacement)", n)
	}
	if !s.BeginDrain(10 * time.Second) {
		t.Error("drain wedged")
	}
}

// TestDeadlineParamValidation: the GET deadline query parameter must be
// a positive duration.
func TestDeadlineParamValidation(t *testing.T) {
	_, ts := newTestServer(t, core.EngineOptions{}, Options{})
	for _, q := range []string{"deadline=bogus", "deadline=-5s"} {
		resp, err := http.Get(ts.URL + "/v1/experiments?kind=table1&apps=fft&procs=2&scale=default&" + q)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET with %s = %d, want 400", q, resp.StatusCode)
		}
	}
}

// TestMetricsLeaseAndJournal: with a cache directory the engine holds
// work leases and journals the run; both must surface in /metrics.
func TestMetricsLeaseAndJournal(t *testing.T) {
	_, ts := newTestServer(t, core.EngineOptions{CacheDir: t.TempDir()}, Options{})
	resp := postJSON(t, ts.URL, smallReq(), nil)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("experiment = %d, want 200", resp.StatusCode)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var m Metrics
	if err := json.NewDecoder(mresp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.Lease.Acquired == 0 {
		t.Error("metrics report no acquired leases despite a cache dir")
	}
	if !m.Journal.Enabled || m.Journal.RunID == "" {
		t.Errorf("journal block = %+v, want enabled with a run id", m.Journal)
	}
	if m.Journal.Appended == 0 {
		t.Error("journal appended no events during a real run")
	}
}
