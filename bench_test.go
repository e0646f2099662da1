// The ablation benches called out in DESIGN.md: each contrasts a design
// choice the paper makes with the alternative it rejects and reports
// the difference as a domain-specific metric alongside ns/op. Costs of
// the simulator, the replay passes and every figure are measured by
// bench/ (go run -C bench .).
package splash2_test

import (
	"testing"

	"splash2"
)

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
