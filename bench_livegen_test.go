// Live-generation benchmarks: the front half of every experiment — the
// program executing on the simulated machine, producing its reference
// stream — as opposed to the replay benches, which measure the back
// half. These intentionally use only the public facade (RecordTrace,
// RunProgram, ReplayTrace), so this file also compiles against older
// trees for interleaved before/after measurements (BENCH_livegen.json).
package splash2_test

import (
	"testing"

	"splash2"
)

// livegenOpts is the fft problem used by the live-generation benches:
// large enough that per-reference capture costs dominate setup, small
// enough for many interleaved measurement rounds.
var livegenOpts = map[string]int{"n": 4096}

// BenchmarkLiveGenRecord measures trace generation: fft at 8 processors
// under the count-only model with recording on — the acceptance workload
// for the batched capture path (every reference used to take two global
// locks here; now a buffered append).
func BenchmarkLiveGenRecord(b *testing.B) {
	var refs int
	for i := 0; i < b.N; i++ {
		tr, _, err := splash2.RecordTrace("fft", 8, livegenOpts)
		if err != nil {
			b.Fatal(err)
		}
		refs = tr.Len()
	}
	b.ReportMetric(float64(refs), "refs")
}

// BenchmarkLiveGenCountOnly is the no-capture control: the same program
// with neither memory system nor recorder attached. The gap between this
// and BenchmarkLiveGenRecord is the true cost of capture.
func BenchmarkLiveGenCountOnly(b *testing.B) {
	cfg := splash2.Config{Procs: 8, MemModel: splash2.CountOnly}
	for i := 0; i < b.N; i++ {
		if _, err := splash2.RunProgram("fft", cfg, livegenOpts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLiveGenFullMem measures a live full-memory run (the Table-1 /
// traffic configuration: 1 MB 4-way 64 B caches at 8 processors) — every
// reference enters the coherence simulation, formerly one global lock
// acquisition each, now one per flushed batch.
func BenchmarkLiveGenFullMem(b *testing.B) {
	cfg := splash2.Config{Procs: 8, CacheSize: 1 << 20, Assoc: 4, LineSize: 64}
	for i := 0; i < b.N; i++ {
		res, err := splash2.RunProgram("fft", cfg, livegenOpts)
		if err != nil {
			b.Fatal(err)
		}
		if res.Stats.Mem.MissRate() <= 0 {
			b.Fatal("full-memory run produced no misses")
		}
	}
}

// BenchmarkLiveGenAllocHeavy measures the allocation path: building and
// running default-scale ocean on the report's 32-processor full-memory
// machine. Ocean allocates every per-processor subgrid of every field
// separately — thousands of allocations against a 32-processor directory
// and history — so this is where a memory-system table re-copy per
// allocation (rather than one exact reservation at phase entry) shows.
func BenchmarkLiveGenAllocHeavy(b *testing.B) {
	cfg := splash2.Config{Procs: 32, CacheSize: 1 << 20, Assoc: 4, LineSize: 64}
	for i := 0; i < b.N; i++ {
		res, err := splash2.RunProgram("ocean", cfg, nil)
		if err != nil {
			b.Fatal(err)
		}
		if res.Stats.Mem.MissRate() <= 0 {
			b.Fatal("full-memory run produced no misses")
		}
	}
}

// BenchmarkLiveGenRecordThenReplay measures the record-then-replay
// composition behind the Figure 3 and Figure 7–8 sweeps, for one
// configuration: generate the stream once under count-only recording,
// then drive the cache simulation from the trace.
func BenchmarkLiveGenRecordThenReplay(b *testing.B) {
	mc := splash2.MemConfig{Procs: 8, CacheSize: 1 << 20, Assoc: 4, LineSize: 64}
	for i := 0; i < b.N; i++ {
		tr, _, err := splash2.RecordTrace("fft", 8, livegenOpts)
		if err != nil {
			b.Fatal(err)
		}
		st, err := splash2.ReplayTrace(tr, mc)
		if err != nil {
			b.Fatal(err)
		}
		if st.MissRate() <= 0 {
			b.Fatal("replay produced no misses")
		}
	}
}
