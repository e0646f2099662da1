// Benchmarks of the memory system, the trace replay passes and the full
// characterization, plus the ablation benches called out in DESIGN.md.
// Each benchmark reports domain-specific metrics alongside ns/op. The
// per-figure costs are measured by bench/ as core.section.<kind>.s.
package splash2_test

import (
	"io"
	"runtime"
	"testing"

	"splash2"
	"splash2/internal/memsys"
)

// BenchmarkMemsysThroughput tracks raw reference throughput of the memory
// system (the global-lock design decision in DESIGN.md).
func BenchmarkMemsysThroughput(b *testing.B) {
	sys, err := memsys.New(memsys.Config{Procs: 8, CacheSize: 64 << 10, Assoc: 4, LineSize: 64, OverheadBytes: 8},
		func(line uint64) int { return int(line % 8) })
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Access(i%8, memsys.Addr((i*8)%(1<<16)), i%4 == 0)
	}
}

// BenchmarkAblationNoHints measures the invalidation-overhead inflation
// when replacement hints are disabled (stale directory sharer lists).
// Both configurations replay one recorded trace, so the comparison is
// exact rather than scheduling-dependent.
func BenchmarkAblationNoHints(b *testing.B) {
	tr, _, err := splash2.RecordTrace("ocean", 8, map[string]int{"n": 32, "steps": 2, "vcycles": 2})
	if err != nil {
		b.Fatal(err)
	}
	run := func(noHints bool) float64 {
		st, err := splash2.ReplayTrace(tr, splash2.MemConfig{
			Procs: 8, CacheSize: 16 << 10, Assoc: 2, LineSize: 64, NoReplacementHints: noHints,
		})
		if err != nil {
			b.Fatal(err)
		}
		return float64(st.Traffic.RemoteOverhead)
	}
	b.ResetTimer()
	var with, without float64
	for i := 0; i < b.N; i++ {
		with = run(false)
		without = run(true)
	}
	b.ReportMetric(without/with, "overhead-inflation")
}

// BenchmarkAblationLULayout contrasts the §3 block-contiguous layout
// against a global row-major matrix: the latter interleaves blocks on
// cache lines (false sharing + extra misses).
func BenchmarkAblationLULayout(b *testing.B) {
	run := func(layout int) float64 {
		cfg := splash2.Config{Procs: 8, CacheSize: 1 << 20, Assoc: 4, LineSize: 64}
		// b=4 so a block row (32 B) is half a cache line: the row-major
		// layout interleaves different blocks on every line.
		res, err := splash2.RunProgram("lu", cfg, map[string]int{"n": 64, "b": 4, "layout": layout})
		if err != nil {
			b.Fatal(err)
		}
		return 100 * res.Stats.Mem.MissRate()
	}
	var blocked, rowmajor float64
	for i := 0; i < b.N; i++ {
		blocked = run(0)
		rowmajor = run(1)
	}
	b.ReportMetric(blocked, "miss-pct-blocked")
	b.ReportMetric(rowmajor, "miss-pct-rowmajor")
}

// BenchmarkAblationOceanPartition contrasts square-like subgrids against
// SPLASH-1-style column strips (§3: perimeter-to-area communication).
func BenchmarkAblationOceanPartition(b *testing.B) {
	run := func(columns int) float64 {
		cfg := splash2.Config{Procs: 8, CacheSize: 1 << 20, Assoc: 4, LineSize: 64}
		res, err := splash2.RunProgram("ocean", cfg, map[string]int{"n": 32, "steps": 1, "vcycles": 2, "columns": columns})
		if err != nil {
			b.Fatal(err)
		}
		return float64(res.Stats.Mem.Traffic.TrueSharingData)
	}
	var square, columns float64
	for i := 0; i < b.N; i++ {
		square = run(0)
		columns = run(1)
	}
	b.ReportMetric(columns/square, "comm-inflation-columns")
}

// BenchmarkAblationWaterLocking contrasts the §3 improved locking strategy
// (private accumulation) against SPLASH-1 per-pair locking.
func BenchmarkAblationWaterLocking(b *testing.B) {
	run := func(oldlock int) float64 {
		cfg := splash2.Config{Procs: 8, CacheSize: 1 << 20, Assoc: 4, LineSize: 64}
		res, err := splash2.RunProgram("water-nsq", cfg, map[string]int{"n": 64, "steps": 1, "oldlock": oldlock})
		if err != nil {
			b.Fatal(err)
		}
		return float64(splash2.AggregateCounters(res.Stats.Procs).Locks)
	}
	var newLocks, oldLocks float64
	for i := 0; i < b.N; i++ {
		newLocks = run(0)
		oldLocks = run(1)
	}
	b.ReportMetric(oldLocks/newLocks, "lock-inflation-oldstyle")
}

// BenchmarkTraceReplay measures trace-replay throughput (the sweep
// acceleration path used by Figures 3, 7 and 8).
func BenchmarkTraceReplay(b *testing.B) {
	tr, _, err := splash2.RecordTrace("fft", 8, map[string]int{"n": 1024})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := splash2.ReplayTrace(tr, splash2.MemConfig{Procs: 8, CacheSize: 64 << 10, Assoc: 4, LineSize: 64}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(tr.Len()), "refs-per-replay")
}

// benchSweepTrace records the fft reference stream the one-pass-sweep
// benches replay, and returns it with the paper's 1 KB–1 MB sweep
// configurations at 64-byte lines.
func benchSweepTrace(b *testing.B, assoc int) (*splash2.Trace, []splash2.MemConfig) {
	b.Helper()
	tr, _, err := splash2.RecordTrace("fft", 8, map[string]int{"n": 1024})
	if err != nil {
		b.Fatal(err)
	}
	var cfgs []splash2.MemConfig
	for _, cs := range splash2.DefaultCacheSizes() {
		cfgs = append(cfgs, splash2.MemConfig{Procs: 8, CacheSize: cs, Assoc: assoc, LineSize: 64})
	}
	return tr, cfgs
}

// BenchmarkReplay is the serial baseline for a Figure-3 column: one
// full trace replay per cache size.
func BenchmarkReplay(b *testing.B) {
	tr, cfgs := benchSweepTrace(b, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, cfg := range cfgs {
			if _, err := splash2.ReplayTrace(tr, cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(len(cfgs)), "configs")
}

// BenchmarkReplayMulti replays the same sweep fused: the trace is
// decoded once and every configuration's system is fed per reference.
func BenchmarkReplayMulti(b *testing.B) {
	tr, cfgs := benchSweepTrace(b, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := splash2.ReplayTraceMulti(tr, cfgs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(cfgs)), "configs")
}

// BenchmarkReplayFullyAssoc is the serial baseline the stack-distance
// pass replaces: one fully-associative replay per cache size.
func BenchmarkReplayFullyAssoc(b *testing.B) {
	tr, cfgs := benchSweepTrace(b, splash2.FullyAssoc)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, cfg := range cfgs {
			if _, err := splash2.ReplayTrace(tr, cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(len(cfgs)), "configs")
}

// BenchmarkStackDistance answers the whole fully-associative sweep from
// one stack-distance pass over the trace.
func BenchmarkStackDistance(b *testing.B) {
	tr, cfgs := benchSweepTrace(b, splash2.FullyAssoc)
	maxSize := cfgs[len(cfgs)-1].CacheSize
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp, err := splash2.StackDistances(tr, 64, maxSize)
		if err != nil {
			b.Fatal(err)
		}
		for _, cfg := range cfgs {
			if _, err := sp.MissRate(cfg.CacheSize); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(len(cfgs)), "configs")
}

// benchReportOptions is the two-program characterization subset used by
// the end-to-end pipeline benches (the cost of cmd/characterize).
func benchReportOptions() splash2.ReportOptions {
	return splash2.ReportOptions{
		Apps:       []string{"fft", "lu"},
		Procs:      4,
		ProcList:   []int{1, 4},
		Scale:      splash2.SweepScale,
		CacheSizes: []int{16 << 10, 1 << 20},
		LineSizes:  []int{64},
	}
}

// BenchmarkFullReport exercises the complete characterization pipeline
// serially (one worker, no result cache) — the baseline for
// BenchmarkCharacterizeParallel.
func BenchmarkFullReport(b *testing.B) {
	o := benchReportOptions()
	o.Workers = 1
	for i := 0; i < b.N; i++ {
		if err := splash2.Characterize(io.Discard, o); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCharacterizeParallel runs the same pipeline with the
// experiment scheduler at full width (GOMAXPROCS workers, no result
// cache so every job really executes). Compare against
// BenchmarkFullReport for the parallel speedup on this host.
func BenchmarkCharacterizeParallel(b *testing.B) {
	o := benchReportOptions()
	o.Workers = runtime.GOMAXPROCS(0)
	for i := 0; i < b.N; i++ {
		if err := splash2.Characterize(io.Discard, o); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(o.Workers), "workers")
}
