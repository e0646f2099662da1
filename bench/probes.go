package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"time"

	"splash2"
	"splash2/internal/memsys"
	"splash2/internal/runner"
	"splash2/internal/serve"
)

// Layer probes: each times one public entry point of one layer on fixed
// inputs, so a change in an end-to-end metric can be traced to the layer
// that moved. README.md says which end-to-end metric each should move.

// sample runs f once per probe sample and returns the median seconds.
func (b *bench) sample(f func()) float64 {
	var secs []float64
	for i := 0; i < b.cfg.probeSamples; i++ {
		t0 := time.Now()
		f()
		secs = append(secs, time.Since(t0).Seconds())
	}
	return median(secs)
}

// probeTrace is one fixed trace in every form the memsys probes read.
type probeTrace struct {
	spec   traceSpec
	tr     *splash2.Trace
	v1, v2 []byte
	path   string // the v2 container on disk
}

func (b *bench) probes() {
	const procs = 8
	var traces []probeTrace
	var refs float64
	dir := b.tempDir()
	for _, spec := range b.cfg.probeTraces {
		tr, _, err := splash2.RecordTrace(spec.app, procs, spec.opts)
		if !b.ok(err, "probe: record "+spec.app) {
			return
		}
		var v1, v2 bytes.Buffer
		_, err1 := tr.WriteTo(&v1)
		_, err2 := tr.WriteV2(&v2)
		path := filepath.Join(dir, spec.app+".sp2t")
		err3 := os.WriteFile(path, v2.Bytes(), 0o644)
		if !b.check(err1 == nil && err2 == nil && err3 == nil, "probe: encode %s: %v %v %v", spec.app, err1, err2, err3) {
			return
		}
		traces = append(traces, probeTrace{spec, tr, v1.Bytes(), v2.Bytes(), path})
		refs += float64(tr.Meta().Refs)
	}
	// mrefs times f over every probe trace and reports trace references
	// per second of the whole pass, the unit of the legacy BENCH_*.json.
	mrefs := func(name string, f func(i int, t probeTrace) error) float64 {
		secs := b.sample(func() {
			for i, t := range traces {
				b.ok(f(i, t), name+" "+t.spec.app)
			}
		})
		b.set(name+".mrefs_per_s", refs/secs/1e6, "Mrefs/s")
		return secs
	}

	// apps + mach: program execution and capture.
	last := traces[len(traces)-1].spec
	b.set("apps.build.ms", 1e3*b.sample(func() {
		m, err := splash2.NewMachine(splash2.Config{Procs: procs, MemModel: splash2.CountOnly})
		if b.ok(err, "probe: new machine") {
			_, err = splash2.Build(last.app, m, last.opts)
			b.ok(err, "probe: build")
		}
	}), "ms")
	exec := func(name string, cfg splash2.Config) float64 {
		var execRefs float64
		secs := b.sample(func() {
			execRefs = 0
			for _, t := range traces {
				res, err := splash2.RunProgram(t.spec.app, cfg, t.spec.opts)
				if b.ok(err, name+" "+t.spec.app) {
					c := splash2.AggregateCounters(res.Stats.Procs)
					execRefs += float64(c.Reads + c.Writes)
				}
			}
		})
		b.set(name+".mrefs_per_s", execRefs/secs/1e6, "Mrefs/s")
		return secs
	}
	countOnly := exec("mach.exec_countonly", splash2.Config{Procs: procs, MemModel: splash2.CountOnly})
	exec("mach.exec_countonly_p32", splash2.Config{Procs: 32, MemModel: splash2.CountOnly})
	exec("mach.exec_fullmem", splash2.Config{Procs: procs, CacheSize: 1 << 20, Assoc: 4, LineSize: 64})
	capture := mrefs("mach.capture", func(_ int, t probeTrace) error {
		_, _, err := splash2.RecordTrace(t.spec.app, procs, t.spec.opts)
		return err
	})
	b.set("mach.capture.overhead_ratio", capture/countOnly, "ratio")

	// memsys, write side.
	mrefs("memsys.encode_v1", func(_ int, t probeTrace) error { _, err := t.tr.WriteTo(io.Discard); return err })
	mrefs("memsys.encode_v2", func(_ int, t probeTrace) error { _, err := t.tr.WriteV2(io.Discard); return err })
	var v2Bytes float64
	for _, t := range traces {
		v2Bytes += float64(len(t.v2))
	}
	b.set("memsys.encode_v2.bytes_per_ref", v2Bytes/refs, "B/ref")
	b.set("memsys.system_new.ms", 1e3*b.sample(func() {
		_, err := memsys.New(memsys.Config{Procs: 32, CacheSize: 1 << 20, Assoc: 4, LineSize: 64}, traces[0].tr.HomeFn(64))
		b.ok(err, "probe: memsys.New")
	}), "ms")

	// memsys, read side.
	mrefs("memsys.decode_v1", func(_ int, t probeTrace) error { _, err := memsys.ReadTrace(bytes.NewReader(t.v1)); return err })
	mrefs("memsys.decode_v2", func(_ int, t probeTrace) error {
		tf, err := memsys.NewTraceFile(bytes.NewReader(t.v2), int64(len(t.v2)), nil)
		if err != nil {
			return err
		}
		for i := range tf.Index() {
			if _, err := tf.DecodeBlock(i); err != nil {
				return err
			}
		}
		return nil
	})
	sizes, lines := sweepConfigs(procs)
	mrefs("memsys.replay_single", func(_ int, t probeTrace) error {
		_, err := splash2.ReplayTrace(t.tr, sizes[len(sizes)-1])
		return err
	})
	mrefs("memsys.replay_multi11", func(_ int, t probeTrace) error { _, err := splash2.ReplayTraceMulti(t.tr, sizes); return err })
	mrefs("memsys.replay_multi11_stream", func(_ int, t probeTrace) error {
		tf, err := splash2.OpenTraceFile(t.path)
		if err != nil {
			return err
		}
		defer tf.Close()
		_, err = splash2.ReplayTraceMulti(tf, sizes)
		return err
	})
	mrefs("memsys.replay_linesize6", func(_ int, t probeTrace) error { _, err := splash2.ReplayTraceMulti(t.tr, lines); return err })
	exact := make([]*splash2.StackProfile, len(traces))
	mrefs("memsys.stackdist", func(i int, t probeTrace) (err error) {
		exact[i], err = splash2.StackDistances(t.tr, 64, 1<<20)
		return err
	})
	maxErr := 0.0
	mrefs("memsys.sampled_1pct", func(i int, t probeTrace) error {
		sp, err := splash2.SampledStackDistances(t.tr, 64, 1<<20, splash2.SampledOptions{
			Rate: 0.01, Seed: uint64(b.seed), ExactLines: splash2.DefaultExactLines,
		})
		if err != nil {
			return err
		}
		if exact[i] == nil {
			return fmt.Errorf("no exact profile to compare with")
		}
		for _, c := range sizes {
			want, err1 := exact[i].MissRate(c.CacheSize)
			got, err2 := sp.EstMissRate(c.CacheSize)
			if err1 != nil || err2 != nil {
				return fmt.Errorf("miss rate at %d B: %v %v", c.CacheSize, err1, err2)
			}
			maxErr = math.Max(maxErr, math.Abs(got-want))
		}
		return nil
	})
	b.set("memsys.sampled_1pct.max_abs_err", maxErr, "ratio")

	b.runnerProbes()

	shapes := b.catalogue(newRand(b.seed))
	b.set("core.request_key.us", 1e6*b.sample(func() {
		for _, s := range shapes {
			if creq, err := s.req.Canonical(); b.ok(err, "probe: canonical") {
				_ = creq.Key()
			}
		}
	})/float64(len(shapes)), "us")
}

// runnerProbes time the scheduler, the result cache with and without the
// lease cycle, and the journal, all without any simulation behind them.
func (b *bench) runnerProbes() {
	ctx := context.Background()
	ops := b.cfg.probeOps
	perOp := func(name string, n int, f func()) { b.set(name, 1e6*b.sample(f)/float64(n), "us") }

	cache, err := runner.OpenCache(b.tempDir())
	if !b.ok(err, "probe: open cache") {
		return
	}
	payload, _ := json.Marshal(strings.Repeat("x", 8<<10))
	decode := func(p []byte) (any, error) { return len(p), nil }
	round := 0
	perOp("runner.cache_put.us", ops, func() {
		round++
		for i := 0; i < ops; i++ {
			b.ok(cache.Put(ctx, runner.KeyOf("probe", round, i), payload), "probe: cache put")
		}
	})
	perOp("runner.cache_get.us", ops, func() {
		for i := 0; i < ops; i++ {
			_, hit := cache.Get(ctx, runner.KeyOf("probe", round, i), decode)
			b.check(hit, "probe: cache get missed a stored key")
		}
	})
	perOp("runner.cache_get_miss.us", ops, func() {
		for i := 0; i < ops; i++ {
			_, hit := cache.Get(ctx, runner.KeyOf("absent", i), decode)
			b.check(!hit, "probe: cache get hit an absent key")
		}
	})

	// graph runs one graph of cheap jobs; keyed jobs get fresh keys per
	// call unless reuse is set, so memo and cache only hit when asked to.
	jobs := b.cfg.probeJobs
	graph := func(r *runner.Runner, keyed bool, gen int) {
		g := r.NewGraph()
		for i := 0; i < jobs; i++ {
			spec := runner.Spec{Label: "noop"}
			if keyed {
				spec.Key = runner.KeyOf("noop", gen, i)
			}
			runner.Submit(g, spec, func(context.Context) (int, error) { return i, nil })
		}
		b.ok(g.Wait(ctx), "probe: graph")
	}
	sched := func(name string, r *runner.Runner, keyed, reuse bool) {
		gen := 0
		if reuse {
			graph(r, keyed, gen)
		}
		perOp(name, jobs, func() {
			if !reuse {
				gen++
			}
			graph(r, keyed, gen)
		})
	}
	sched("runner.sched_noop.us_per_job", runner.New(runner.Options{Workers: b.nproc}), false, false)
	sched("runner.sched_memo.us_per_job", runner.New(runner.Options{Workers: b.nproc}), true, true)
	plain, err1 := runner.OpenCache(b.tempDir())
	leased, err2 := runner.OpenCache(b.tempDir())
	if b.check(err1 == nil && err2 == nil, "probe: open caches: %v %v", err1, err2) {
		leased.EnableLeases(0)
		sched("runner.sched_store.us_per_job", runner.New(runner.Options{Workers: b.nproc, Cache: plain}), true, false)
		sched("runner.sched_store_leased.us_per_job", runner.New(runner.Options{Workers: b.nproc, Cache: leased}), true, false)
	}

	j, err := runner.OpenJournal(b.tempDir())
	if b.ok(err, "probe: open journal") {
		perOp("runner.journal_event.us", ops, func() {
			for i := 0; i < ops; i++ {
				j.JobStart(ctx, "noop", "key")
			}
		})
		b.ok(j.Close(runner.Counts{}), "probe: close journal")
	}
}

// serveProbes time one memo-hit request three ways on a warmed daemon: the
// handler alone, the handler answering 304, and the same request over
// loopback TCP — the difference between the first and the last is the HTTP
// stack.
func (b *bench) serveProbes(d *daemon, s *shape) {
	ops := b.cfg.probeOps
	handler := func(name string, tag string, want int) {
		b.set(name, 1e6*b.sample(func() {
			for i := 0; i < ops; i++ {
				req := httptest.NewRequest(http.MethodGet, s.get, nil)
				if tag != "" {
					req.Header.Set("If-None-Match", tag)
				}
				rec := httptest.NewRecorder()
				d.handler.ServeHTTP(rec, req)
				b.check(rec.Code == want, "probe %s: status %d", name, rec.Code)
			}
		})/float64(ops), "us")
	}
	handler("serve.handler_hit.us", "", http.StatusOK)
	handler("serve.handler_304.us", s.etag, http.StatusNotModified)
	tr := &http.Transport{MaxIdleConnsPerHost: 1}
	defer tr.CloseIdleConnections()
	c := &http.Client{Transport: tr}
	b.set("serve.tcp_hit.us", 1e6*b.sample(func() {
		for i := 0; i < ops; i++ {
			status, body, _, err := fetch(c, d.url, s, formGet)
			b.check(err == nil && status == http.StatusOK && bytes.Equal(body, s.body), "probe tcp hit: status %d, %v", status, err)
		}
	})/float64(ops), "us")

	status, body, _, err := fetch(c, d.url, &shape{get: "/metrics"}, formGet)
	var m serve.Metrics
	if b.check(err == nil && status == http.StatusOK, "probe /metrics: status %d, %v", status, err) &&
		b.ok(json.Unmarshal(body, &m), "probe /metrics: decode") {
		b.set("serve.engine_hit_ratio", m.Engine.HitRatio, "ratio")
	}
}
