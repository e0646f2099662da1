package serve

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"splash2/internal/core"
)

// answer is what a client sees of one response: everything a retained
// flight's response carries.
type answer struct {
	status                              int
	etag, contentType, length, degraded string
	body                                string
}

// send issues one request to the experiments endpoint; body selects a
// POST.
func send(t *testing.T, base, method, query, body string, hdr map[string]string) answer {
	t.Helper()
	hr, err := http.NewRequest(method, base+"/v1/experiments?"+query, strings.NewReader(body))
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
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return answer{
		status:      resp.StatusCode,
		etag:        resp.Header.Get("ETag"),
		contentType: resp.Header.Get("Content-Type"),
		length:      resp.Header.Get("Content-Length"),
		degraded:    resp.Header.Get(headerDegraded),
		body:        string(b),
	}
}

// TestAliasedRepeatsIdentical: each raw form of one retained request —
// GET, GET with a deadline parameter, GET with the deadline header, a
// 304 revalidation, POST and reformatted POST — sent twice gets its
// second answer from an alias, and that answer equals the first in
// status, headers and body. While the second is sent, the flight is
// unregistered under its key, so an answer that parsed, canonicalized
// and keyed the request would have started a fresh flight. A form with a
// bad deadline header keeps answering 400 and SSE repeats stream; neither
// is ever aliased.
func TestAliasedRepeatsIdentical(t *testing.T) {
	s, ts := newTestServer(t, core.EngineOptions{}, Options{})
	const query = "kind=table1&apps=fft,radix&procs=2&scale=default"
	const post = `{"kind":"table1","apps":["fft","radix"],"procs":2,"scale":"default"}`
	first := send(t, ts.URL, http.MethodGet, query, "", nil)
	if first.status != http.StatusOK {
		t.Fatalf("first request = %d: %s", first.status, first.body)
	}
	key := registered(t, s, smallReq()).key

	// unregistered runs fn with the retained flight out of the key map.
	unregistered := func(fn func()) {
		s.co.mu.Lock()
		f := s.co.flights[key]
		delete(s.co.flights, key)
		s.co.mu.Unlock()
		fn()
		s.co.mu.Lock()
		s.co.flights[key] = f
		s.co.mu.Unlock()
	}

	revalidate := map[string]string{"If-None-Match": first.etag}
	rows := []struct {
		name, method, query, body string
		hdr                       map[string]string
		prime                     bool // answer the form once without hdr first: a 304 registers no alias
		status                    int
	}{
		{"GET", http.MethodGet, "apps=fft,radix&kind=table1&scale=default&procs=2", "", nil, false, http.StatusOK},
		{"GET deadline", http.MethodGet, query + "&deadline=1m", "", nil, false, http.StatusOK},
		{"GET header", http.MethodGet, query, "", map[string]string{headerDeadline: "2m"}, false, http.StatusOK},
		{"GET If-None-Match", http.MethodGet, "procs=2&scale=default&kind=table1&apps=fft,radix", "", revalidate, true, http.StatusNotModified},
		{"POST", http.MethodPost, "", post, nil, false, http.StatusOK},
		{"POST reformatted", http.MethodPost, "", "{\n  \"kind\": \"table1\",\n  \"apps\": [\"fft\", \"radix\"],\n  \"procs\": 2,\n  \"scale\": \"default\"\n}\n", nil, false, http.StatusOK},
	}
	for _, row := range rows {
		if row.prime {
			send(t, ts.URL, row.method, row.query, row.body, nil)
		}
		n, _ := s.co.aliasing()
		a := send(t, ts.URL, row.method, row.query, row.body, row.hdr)
		if now, _ := s.co.aliasing(); !row.prime && now != n+1 {
			t.Errorf("%s: aliases %d → %d after its first answer, want one more", row.name, n, now)
		}
		flights, _, _, _, _ := s.co.counts()
		var b answer
		unregistered(func() { b = send(t, ts.URL, row.method, row.query, row.body, row.hdr) })
		if now, _, _, _, _ := s.co.counts(); now != flights {
			t.Errorf("%s: the repeat started a flight: it was not answered from its alias", row.name)
		}
		if a.status != row.status || b != a {
			t.Errorf("%s: first %+v, repeat %+v; want equal answers with status %d", row.name, a, b, row.status)
		}
		if row.status == http.StatusOK && (a.body != first.body || a.etag != first.etag) {
			t.Errorf("%s: answered a body or ETag other than the first request's", row.name)
		}
	}

	n, size := s.co.aliasing()
	for i := 0; i < 2; i++ {
		bad := send(t, ts.URL, http.MethodGet, query, "", map[string]string{headerDeadline: "soon"})
		if bad.status != http.StatusBadRequest || !strings.Contains(bad.body, headerDeadline) {
			t.Errorf("bad deadline header, try %d: %d %q, want 400 naming the header", i, bad.status, bad.body)
		}
	}
	for i := 0; i < 2; i++ {
		for _, hdr := range []map[string]string{{"Accept": "text/event-stream"}, nil} {
			q := query
			if hdr == nil {
				q = "stream=1&" + query
			}
			sse := send(t, ts.URL, http.MethodGet, q, "", hdr)
			var result string
			for _, ev := range parseSSE(t, strings.NewReader(sse.body)) {
				if ev.name == "result" {
					result = string(ev.data)
				}
			}
			if sse.status != http.StatusOK || sse.contentType != "text/event-stream" || result != strings.TrimSuffix(first.body, "\n") {
				t.Errorf("SSE repeat %d (%v, %q): %d %q, want a stream whose result is the body", i, hdr, q, sse.status, sse.contentType)
			}
		}
	}
	if now, nowSize := s.co.aliasing(); now != n || nowSize != size {
		t.Errorf("aliases %d (%d bytes) → %d (%d bytes) after bad-header and SSE requests, want no change", n, size, now, nowSize)
	}
	if n != 1+len(rows) {
		t.Errorf("aliases = %d, want %d: the first request's form and one per row", n, 1+len(rows))
	}
}

// TestAliasFlood: distinct raw forms of one retained request are cheap to
// mint (deadline=1s … 100s). Every one is answered 200 with the held body
// and starts no flight; aliases stop at the cap, which bodies and aliases
// together never pass, and the retained bodies do not change. A flight
// whose body did not fit under the cap is not retained, and its form gets
// no alias: each repeat is a fresh flight.
func TestAliasFlood(t *testing.T) {
	s, ts := newTestServer(t, core.EngineOptions{}, Options{})
	const query = "kind=table1&apps=fft,radix&procs=2&scale=default"
	first := send(t, ts.URL, http.MethodGet, query, "", nil)
	if first.status != http.StatusOK {
		t.Fatalf("first request = %d: %s", first.status, first.body)
	}
	setLimit := func(limit int64) {
		s.co.mu.Lock()
		s.co.retainLimit = limit
		s.co.mu.Unlock()
	}
	flights, _, _, _, _ := s.co.counts()
	retained, retainedBytes := s.co.retention()

	// Under a cap one byte short of two bodies, another key's flight is
	// not retained, though its alias would fit. Keep-going is part of the
	// key, and a clean keep-going run renders the same body.
	setLimit(int64(2*len(first.body) - 1))
	unheld := query + "&keepGoing=1"
	for i := 1; i <= 2; i++ {
		if a := send(t, ts.URL, http.MethodGet, unheld, "", nil); a.status != http.StatusOK || a.body != first.body {
			t.Fatalf("%s, try %d: %d with %d body bytes, want 200 with the same table", unheld, i, a.status, len(a.body))
		}
		if n, _ := s.co.aliasing(); n != 1 {
			t.Errorf("%s, try %d: aliases = %d, want only the first request's", unheld, i, n)
		}
		if now, _, _, _, _ := s.co.counts(); now != flights+int64(i) {
			t.Errorf("%s, try %d: %d flights started, want %d", unheld, i, now-flights, i)
		}
	}
	flights += 2

	// Room for the body and about 20 aliases of some 140 bytes each.
	limit := int64(len(first.body) + 20*140)
	setLimit(limit)
	const forms = 100
	for pass := 0; pass < 2; pass++ {
		for i := 1; i <= forms; i++ {
			q := fmt.Sprintf("%s&deadline=%ds", query, i)
			if a := send(t, ts.URL, http.MethodGet, q, "", nil); a.status != http.StatusOK || a.body != first.body || a.etag != first.etag {
				t.Fatalf("pass %d, %s: %d with %d body bytes, ETag %q; want 200 with the held body", pass, q, a.status, len(a.body), a.etag)
			}
			n, size := s.co.retention()
			_, aliasBytes := s.co.aliasing()
			if size+aliasBytes > limit {
				t.Fatalf("pass %d, %s: retainedBytes %d + aliasBytes %d over the cap %d", pass, q, size, aliasBytes, limit)
			}
			if n != retained || size != retainedBytes {
				t.Fatalf("pass %d, %s: retention %d flights, %d bytes; want %d and %d", pass, q, n, size, retained, retainedBytes)
			}
		}
	}
	if now, _, _, _, _ := s.co.counts(); now != flights {
		t.Errorf("the flood started %d flights", now-flights)
	}
	if n, _ := s.co.aliasing(); n == 0 || n >= forms {
		t.Errorf("aliases = %d, want some but not all of the %d forms under the cap", n, forms)
	}
}
