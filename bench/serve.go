package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"splash2/internal/core"
	"splash2/internal/serve"
)

// shape is one request of the catalogue and what the cold pass learned
// about it.
type shape struct {
	req  core.Request
	get  string // path and query of the GET form
	post []byte // JSON body of the POST form
	body []byte // the body of the first hit; every later 200 must equal it
	etag string
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// catalogue is every single-figure kind for every program: shapes that
// overlap in runs and recordings, so the engine memo is shared between
// them. The seed decides the order, and with it which shapes are hot.
func (b *bench) catalogue(rng *rand.Rand) []*shape {
	var plist []string
	for _, p := range b.cfg.servePList {
		plist = append(plist, strconv.Itoa(p))
	}
	var out []*shape
	for _, kind := range sectionKinds {
		for _, app := range b.cfg.serveApps {
			q := url.Values{
				"kind": {kind}, "apps": {app}, "procs": {strconv.Itoa(b.cfg.serveProcs)},
				"plist": {strings.Join(plist, ",")}, "scale": {"sweep"},
			}
			req := core.Request{Kind: kind, Apps: []string{app}, Procs: b.cfg.serveProcs, ProcList: b.cfg.servePList, Scale: "sweep"}
			post, err := json.Marshal(req)
			if err != nil {
				panic(err) // a struct of strings and ints always marshals
			}
			out = append(out, &shape{req: req, get: "/v1/experiments?" + q.Encode(), post: post})
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// Request forms of the hot phase.
const (
	formGet  = iota // plain GET: 200 and the body
	formTag         // GET with If-None-Match: 304 and no body
	formPost        // POST of the JSON form: 200 and the body
)

// hotRequest is one draw of the hot phase.
type hotRequest struct{ shape, form int }

// hotSequence draws one round: Zipf(1.0) over the catalogue order, 60 %
// plain GET, 25 % revalidation, 15 % POST.
func hotSequence(rng *rand.Rand, shapes, n int) []hotRequest {
	cdf := make([]float64, shapes)
	sum := 0.0
	for i := range cdf {
		sum += 1 / float64(i+1)
		cdf[i] = sum
	}
	seq := make([]hotRequest, n)
	for i := range seq {
		s := sort.SearchFloat64s(cdf, rng.Float64()*sum)
		if s >= shapes {
			s = shapes - 1
		}
		form := formGet
		if u := rng.Float64(); u >= 0.85 {
			form = formPost
		} else if u >= 0.60 {
			form = formTag
		}
		seq[i] = hotRequest{s, form}
	}
	return seq
}

// daemon is an in-process splashd: engine with cache, leases and journal
// on, the serve handler, and a real HTTP server on a loopback port.
type daemon struct {
	engine  *core.Engine
	handler http.Handler
	hs      *http.Server
	url     string
	cancel  context.CancelFunc
	served  chan error
}

func (b *bench) startDaemon() (*daemon, error) {
	e, err := core.NewEngine(core.EngineOptions{Workers: b.nproc, CacheDir: b.tempDir()})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		e.Close()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	d := &daemon{engine: e, cancel: cancel, served: make(chan error, 1), url: "http://" + ln.Addr().String()}
	d.handler = serve.New(ctx, e, serve.Options{}).Handler()
	d.hs = &http.Server{Handler: d.handler}
	go func() { d.served <- d.hs.Serve(ln) }()
	return d, nil
}

// stop shuts the server down and returns once its goroutine has ended.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	<-d.served
	d.cancel()
	if cerr := d.engine.Close(); err == nil {
		err = cerr
	}
	return err
}

// clients runs n requests closed loop: the given number of clients, each
// with its own connection, each sending its next request when the previous
// one is answered.
func clients(workers, n int, do func(c *http.Client, i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr := &http.Transport{MaxIdleConnsPerHost: 1}
			defer tr.CloseIdleConnections()
			c := &http.Client{Transport: tr}
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				do(c, i)
			}
		}()
	}
	wg.Wait()
}

// fetch sends one request and returns the status, body and ETag.
func fetch(c *http.Client, base string, s *shape, form int) (int, []byte, string, error) {
	var req *http.Request
	var err error
	if form == formPost {
		req, err = http.NewRequest(http.MethodPost, base+"/v1/experiments", bytes.NewReader(s.post))
	} else {
		req, err = http.NewRequest(http.MethodGet, base+s.get, nil)
	}
	if err != nil {
		return 0, nil, "", err
	}
	if form == formTag {
		req.Header.Set("If-None-Match", s.etag)
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, "", err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, body, resp.Header.Get("ETag"), err
}

// coldPass walks the catalogue once against a fresh daemon, b.nproc clients
// at a time, then asks for each shape once more to learn the body the
// warmed daemon serves. That is not always the cold body: with two cold
// requests that share a lock-ordered run in flight together (traffic and
// table3 of radiosity on seed 12), one cold response differed from every
// later response for its shape (README.md, "Output checks").
func (b *bench) coldPass(d *daemon, cat []*shape) {
	root := b.tr.begin(serveMix, "cold pass", 0)
	defer b.tr.end(root)
	clients(b.nproc, len(cat), func(c *http.Client, i int) {
		s := cat[i]
		id := b.tr.begin(serveMix, "cold "+s.req.Kind, root)
		status, _, etag, err := fetch(c, d.url, s, formGet)
		b.tr.end(id)
		b.check(err == nil && status == http.StatusOK && etag != "", "cold %s: status %d, etag %q, %v", s.get, status, etag, err)
		s.etag = etag
	})
	clients(1, len(cat), func(c *http.Client, i int) {
		s := cat[i]
		status, body, etag, err := fetch(c, d.url, s, formGet)
		b.check(err == nil && status == http.StatusOK && etag == s.etag, "first hit %s: status %d, etag %q after %q, %v", s.get, status, etag, s.etag, err)
		s.body = body
	})
}

// hotRound sends one drawn sequence and returns each request's latency in
// milliseconds.
func (b *bench) hotRound(d *daemon, cat []*shape, seq []hotRequest) []float64 {
	root := b.tr.begin(serveMix, "hot round", 0)
	defer b.tr.end(root)
	lat := make([]float64, len(seq))
	var bad atomic.Int64
	var firstBad atomic.Pointer[string]
	clients(b.nproc, len(seq), func(c *http.Client, i int) {
		s, form := cat[seq[i].shape], seq[i].form
		id := b.tr.begin(serveMix, "hot", root)
		t0 := time.Now()
		status, body, _, err := fetch(c, d.url, s, form)
		lat[i] = float64(time.Since(t0)) / 1e6
		b.tr.end(id)
		want, wantBody := http.StatusOK, s.body
		if form == formTag {
			want, wantBody = http.StatusNotModified, nil
		}
		if err != nil || status != want || !bytes.Equal(body, wantBody) {
			bad.Add(1)
			why := fmt.Sprintf("form %d of %s: status %d, %d body bytes (first hit %d), %v", form, s.get, status, len(body), len(s.body), err)
			firstBad.CompareAndSwap(nil, &why)
		}
	})
	why := ""
	if p := firstBad.Load(); p != nil {
		why = *p
	}
	b.count(len(seq), int(bad.Load()), "hot round: %d of %d requests failed, the first: %s", bad.Load(), len(seq), why)
	return lat
}

func (b *bench) runServeMix(seconds float64) samples {
	var s samples
	rng := newRand(b.seed)
	cat := b.catalogue(rng)

	// Set-up is a fresh daemon on a fresh directory plus one cold walk of
	// the catalogue; the hot phase runs on the last one.
	var d *daemon
	for pass := 0; pass < b.cfg.coldPasses; pass++ {
		if d != nil {
			b.ok(d.stop(), "stop daemon")
		}
		t0 := time.Now()
		var err error
		if d, err = b.startDaemon(); !b.ok(err, "start daemon") {
			return s
		}
		b.coldPass(d, cat)
		s.setup = append(s.setup, time.Since(t0).Seconds())
	}
	defer func() { b.ok(d.stop(), "stop daemon") }()

	var p50, p99 []float64
	s.timed(b.cfg.minRounds, seconds, func(int) {
		lat := b.hotRound(d, cat, hotSequence(rng, len(cat), b.cfg.hotRequests))
		if b.tr != nil {
			sort.Float64s(lat)
			p50 = append(p50, percentile(lat, 50))
			p99 = append(p99, percentile(lat, 99))
		}
	})
	if b.tr != nil {
		b.set("serve.cold_pass.s", median(b.tr.seconds(serveMix, "cold pass")), "s")
		for _, kind := range sectionKinds {
			b.set("serve.cold."+kind+".p50_ms", 1e3*median(b.tr.seconds(serveMix, "cold "+kind)), "ms")
		}
		b.set("serve.hit_p50_ms", median(p50), "ms")
		b.set("serve.hit_p99_ms", median(p99), "ms")
		b.set("serve.hit_req_per_s", float64(b.cfg.hotRequests)/median(s.wall), "1/s")
		b.set("trace.serve-mix.wall_s", s.wall[len(s.wall)-1], "s")
		b.serveProbes(d, cat[0])
	}
	return s
}
