package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	"splash2"
)

// recording is one trace on disk as a v2 container.
type recording struct {
	app  string
	path string
	refs uint64
}

// sweepConfigs are the paper's two sweeps: the 11 cache sizes at 4-way and
// 64 B lines, and the 6 line sizes at 1 MB and 4-way.
func sweepConfigs(procs int) (sizes, lines []splash2.MemConfig) {
	for _, cs := range splash2.DefaultCacheSizes() {
		sizes = append(sizes, splash2.MemConfig{Procs: procs, CacheSize: cs, Assoc: 4, LineSize: 64})
	}
	for _, ls := range splash2.DefaultLineSizes() {
		lines = append(lines, splash2.MemConfig{Procs: procs, CacheSize: 1 << 20, Assoc: 4, LineSize: ls})
	}
	return sizes, lines
}

// record executes each program once under capture and writes its stream
// to disk, as `trace record` does.
func (b *bench) record(parent int) []recording {
	dir := b.tempDir()
	var out []recording
	for _, spec := range b.cfg.sweepTraces {
		id := b.tr.begin(traceSweep, "splash2.RecordTrace "+spec.app, parent)
		tr, _, err := splash2.RecordTrace(spec.app, b.cfg.sweepProcs, spec.opts)
		b.tr.end(id)
		if !b.ok(err, "record "+spec.app) {
			continue
		}
		path := filepath.Join(dir, spec.app+".sp2t")
		id = b.tr.begin(traceSweep, "Trace.WriteV2 "+spec.app, parent)
		f, err := os.Create(path)
		if err == nil {
			_, err = tr.WriteV2(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		b.tr.end(id)
		if b.ok(err, "write "+path) {
			out = append(out, recording{spec.app, path, tr.Meta().Refs})
		}
	}
	return out
}

// sweep is one iteration: every trace, streamed from disk, through the
// working-set sweep, the line-size sweep and both reuse-distance passes.
// exact digests the results that must repeat on any seed; sampled digests
// the seed-dependent estimate.
func (b *bench) sweep(recs []recording) (exact, sampled [sha256.Size]byte) {
	root := b.tr.begin(traceSweep, "sweep", 0)
	defer b.tr.end(root)
	sizes, lines := sweepConfigs(b.cfg.sweepProcs)
	he, hs := sha256.New(), sha256.New()
	ee, es := json.NewEncoder(he), json.NewEncoder(hs)
	call := func(name string, rec recording, f func() error) {
		id := b.tr.begin(traceSweep, name+" "+rec.app, root)
		err := f()
		b.tr.end(id)
		b.ok(err, name+" "+rec.app)
	}
	for _, rec := range recs {
		var tf *splash2.TraceFile
		call("splash2.OpenTraceFile", rec, func() (err error) { tf, err = splash2.OpenTraceFile(rec.path); return })
		if tf == nil {
			continue
		}
		call("splash2.ReplayTraceMulti sizes", rec, func() error {
			st, err := splash2.ReplayTraceMulti(tf, sizes)
			ee.Encode(st)
			return err
		})
		call("splash2.ReplayTraceMulti lines", rec, func() error {
			st, err := splash2.ReplayTraceMulti(tf, lines)
			ee.Encode(st)
			return err
		})
		call("splash2.StackDistances", rec, func() error {
			sp, err := splash2.StackDistances(tf, 64, 1<<20)
			if err != nil {
				return err
			}
			for _, c := range sizes {
				m, err := sp.Misses(c.CacheSize)
				if err != nil {
					return err
				}
				ee.Encode(m)
			}
			return nil
		})
		call("splash2.SampledStackDistances", rec, func() error {
			sp, err := splash2.SampledStackDistances(tf, 64, 1<<20, splash2.SampledOptions{
				Rate: 0.01, Seed: uint64(b.seed), ExactLines: splash2.DefaultExactLines,
			})
			if err != nil {
				return err
			}
			for _, c := range sizes {
				m, err := sp.EstMisses(c.CacheSize)
				if err != nil {
					return err
				}
				es.Encode(m)
			}
			return nil
		})
		b.ok(tf.Close(), "close "+rec.path)
	}
	copy(exact[:], he.Sum(nil))
	copy(sampled[:], hs.Sum(nil))
	return exact, sampled
}

// checkSweep holds the four ways this repository computes a miss count
// equal on each trace: fused and single replay, the stack-distance profile
// against fully-associative replays, and the sampled pass at rate 1.
func (b *bench) checkSweep(recs []recording) {
	sizes, _ := sweepConfigs(b.cfg.sweepProcs)
	for _, rec := range recs {
		tf, err := splash2.OpenTraceFile(rec.path)
		if !b.ok(err, "check: open "+rec.path) {
			continue
		}
		k := len(sizes) / 2
		multi, err1 := splash2.ReplayTraceMulti(tf, sizes)
		single, err2 := splash2.ReplayTrace(tf, sizes[k])
		if b.check(err1 == nil && err2 == nil, "check %s: replay: %v %v", rec.app, err1, err2) {
			want, _ := json.Marshal(single)
			got, _ := json.Marshal(multi[k])
			b.check(bytes.Equal(want, got), "check %s: ReplayTraceMulti[%d] differs from ReplayTrace", rec.app, k)
		}
		exact, err1 := splash2.StackDistances(tf, 64, 1<<20)
		full, err2 := splash2.SampledStackDistances(tf, 64, 1<<20, splash2.SampledOptions{Rate: 1, Seed: uint64(b.seed)})
		if b.check(err1 == nil && err2 == nil, "check %s: stack distances: %v %v", rec.app, err1, err2) {
			for _, cs := range []int{4 << 10, 64 << 10} {
				cfg := splash2.MemConfig{Procs: b.cfg.sweepProcs, CacheSize: cs, Assoc: splash2.FullyAssoc, LineSize: 64}
				st, err := splash2.ReplayTrace(tf, cfg)
				m, _ := exact.Misses(cs)
				b.check(err == nil && m == st.Aggregate().TotalMisses(),
					"check %s: StackDistances misses at %d B = %d, fully-associative replay %d (%v)", rec.app, cs, m, st.Aggregate().TotalMisses(), err)
			}
			same := true
			for _, c := range sizes {
				m, _ := exact.Misses(c.CacheSize)
				est, _ := full.EstMisses(c.CacheSize)
				same = same && est == float64(m)
			}
			b.check(same, "check %s: SampledStackDistances at rate 1 differs from StackDistances", rec.app)
		}
		b.ok(tf.Close(), "check: close "+rec.path)
	}
}

func (b *bench) runTraceSweep(seconds float64) samples {
	var s samples
	var recs []recording
	for i := 0; i < b.cfg.sweepSetups; i++ {
		t0 := time.Now()
		root := b.tr.begin(traceSweep, "record", 0)
		recs = b.record(root)
		b.tr.end(root)
		s.setup = append(s.setup, time.Since(t0).Seconds())
	}

	var first, firstSampled [sha256.Size]byte
	s.timed(b.cfg.minSweep, seconds, func(i int) {
		exact, sampled := b.sweep(recs)
		if i == 0 {
			first, firstSampled = exact, sampled
		}
		b.check(exact == first && sampled == firstSampled, "trace-sweep: iteration %d digest differs from the first", i)
	})
	b.checkSweep(recs)
	if b.tr != nil {
		var refs uint64
		for _, r := range recs {
			refs += r.refs
		}
		b.set("sim.trace_refs", float64(refs), "count")
		b.set("sim.sweep_digest48", digest48(first[:]), "count")
		b.set("trace.trace-sweep.wall_s", s.wall[len(s.wall)-1], "s")
	}
	return s
}
