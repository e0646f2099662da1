package core

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"splash2/internal/apps"
	_ "splash2/internal/apps/all"
	"splash2/internal/mach"
	"splash2/internal/memsys"
)

// fast subset of apps for unit tests of the experiment sections.
var fastApps = []string{"fft", "lu", "radix"}

// do runs one request on a fresh single-worker engine with no disk
// cache, so every call performs real executions.
func do(t *testing.T, req Request) *Results {
	t.Helper()
	e, err := NewEngine(EngineOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	res, err := e.Do(context.Background(), req, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestTable1(t *testing.T) {
	rows := do(t, Request{Kind: KindTable1, Apps: fastApps, Procs: 4}).Table1
	if len(rows) != len(fastApps) {
		t.Fatalf("rows=%d", len(rows))
	}
	for _, r := range rows {
		if r.Instr == 0 || r.Reads == 0 || r.Writes == 0 {
			t.Fatalf("%s: empty counters %+v", r.App, r)
		}
		if r.Instr < r.Reads+r.Writes+r.Flops {
			t.Fatalf("%s: instr %d < reads+writes+flops", r.App, r.Instr)
		}
		if r.App == "lu" && r.Flops == 0 {
			t.Fatal("lu without flops")
		}
		if r.BarriersPerProc == 0 && r.App != "radix" && r.App != "cholesky" {
			if r.App == "lu" || r.App == "fft" {
				t.Fatalf("%s: no barriers", r.App)
			}
		}
	}
	var buf bytes.Buffer
	RenderTable1(&buf, rows)
	if !strings.Contains(buf.String(), "lu") {
		t.Fatal("render missing app")
	}
}

// TestSpeedupsMonotoneAndBounded also guards Figure 1 for the task-stealing
// programs: raytrace and volrend have 64 and 36 tiles at sweep scale, so
// four processors must at least halve their PRAM time, whichever
// processor the host happens to run first.
func TestSpeedupsMonotoneAndBounded(t *testing.T) {
	curves := do(t, Request{Kind: KindSpeedups, Apps: []string{"fft", "raytrace", "volrend"}, ProcList: []int{1, 2, 4}}).Speedups
	for _, c := range curves {
		if c.Speedup[0] != 1 {
			t.Fatalf("%s: speedup at P=1 is %v", c.App, c.Speedup[0])
		}
		for i, p := range c.Procs {
			if c.Speedup[i] > float64(p)*1.01 {
				t.Fatalf("%s: superlinear PRAM speedup %v at P=%d", c.App, c.Speedup[i], p)
			}
		}
		if c.Speedup[2] < 2 {
			t.Fatalf("%s: speedup at P=4 is %v, want at least 2", c.App, c.Speedup[2])
		}
	}
	var buf bytes.Buffer
	RenderSpeedups(&buf, curves)
	if !strings.Contains(buf.String(), "P=4") {
		t.Fatal("render missing proc column")
	}
}

func TestSyncProfiles(t *testing.T) {
	profs := do(t, Request{Kind: KindSync, Apps: []string{"lu"}, Procs: 4}).Sync
	p := profs[0]
	if p.MinPct > p.AvgPct || p.AvgPct > p.MaxPct {
		t.Fatalf("ordering violated: %+v", p)
	}
	if p.MaxPct <= 0 || p.MaxPct > 100 {
		t.Fatalf("max pct out of range: %v", p.MaxPct)
	}
	var buf bytes.Buffer
	RenderSyncProfiles(&buf, profs)
	if !strings.Contains(buf.String(), "lu") {
		t.Fatal("render missing app")
	}
}

func TestWorkingSetsMonotone(t *testing.T) {
	sizes := []int{1 << 10, 4 << 10, 16 << 10, 64 << 10}
	c := do(t, Request{
		Kind: KindWorkingSets, Apps: []string{"lu"}, Procs: 4,
		CacheSizes: sizes, Assocs: []int{memsys.FullyAssoc},
	}).MissCurves[0]
	for i := 1; i < len(c.MissRate); i++ {
		if c.MissRate[i] > c.MissRate[i-1]+1e-9 {
			t.Fatalf("fully associative miss rate not monotone: %v", c.MissRate)
		}
	}
	if knee, drop := c.Knee(); knee == 0 || drop <= 0 {
		t.Fatalf("no knee found in %v", c.MissRate)
	}
}

func TestTable2UsesKnees(t *testing.T) {
	sizes := []int{1 << 10, 8 << 10, 64 << 10}
	rows := do(t, Request{Kind: KindWorkingSets, Apps: []string{"lu", "fft"}, Procs: 2, CacheSizes: sizes}).Table2
	if len(rows) != 2 {
		t.Fatalf("rows=%d", len(rows))
	}
	for _, r := range rows {
		if r.WS1 == "" || r.MeasuredKnee == 0 {
			t.Fatalf("incomplete row %+v", r)
		}
	}
	var buf bytes.Buffer
	RenderTable2(&buf, rows)
	if !strings.Contains(buf.String(), "one block") {
		t.Fatal("render missing static analysis")
	}
}

func TestTrafficBreakdownConsistency(t *testing.T) {
	pts := do(t, Request{Kind: KindTraffic, Apps: []string{"fft"}, ProcList: []int{1, 4}}).Traffic[0]
	if pts[0].Remote() != 0 {
		t.Fatalf("uniprocessor remote traffic %v", pts[0].Remote())
	}
	if pts[1].Remote() == 0 {
		t.Fatal("4-processor FFT has no communication")
	}
	if !pts[0].PerFlop {
		t.Fatal("fft should be per-flop")
	}
	var buf bytes.Buffer
	RenderTraffic(&buf, [][]TrafficPoint{pts})
	if !strings.Contains(buf.String(), "B/FLOP") {
		t.Fatal("render missing unit")
	}
}

func TestTable3CommunicationGrows(t *testing.T) {
	rows := do(t, Request{Kind: KindTable3, Apps: []string{"ocean"}, ProcList: []int{2, 4}}).Table3
	r := rows[0]
	if r.RatioHigh <= r.RatioLow {
		t.Fatalf("ocean comm/comp did not grow with P: %v → %v", r.RatioLow, r.RatioHigh)
	}
	var buf bytes.Buffer
	RenderTable3(&buf, rows)
	if !strings.Contains(buf.String(), "ocean") {
		t.Fatal("render missing app")
	}
}

func TestLineSizeSweep(t *testing.T) {
	pts := do(t, Request{Kind: KindLineSize, Apps: []string{"radix"}, Procs: 4, LineSizes: []int{16, 64, 256}}).LineSize[0]
	if len(pts) != 3 {
		t.Fatalf("points=%d", len(pts))
	}
	// Longer lines prefetch: total miss rate should fall from 16B to 256B
	// for a program with good spatial locality in its key arrays.
	if pts[2].TotalMissPct() >= pts[0].TotalMissPct() {
		t.Fatalf("long lines did not reduce radix miss rate: %v vs %v",
			pts[2].TotalMissPct(), pts[0].TotalMissPct())
	}
	var buf bytes.Buffer
	RenderLineSizeMisses(&buf, [][]LineSizePoint{pts})
	RenderLineSizeTraffic(&buf, [][]LineSizePoint{pts})
	if !strings.Contains(buf.String(), "256B") {
		t.Fatal("render missing line size")
	}
}

func TestRunVerifiedCatchesApps(t *testing.T) {
	if _, err := RunVerified("lu", mach.Config{Procs: 2, CacheSize: 64 << 10, Assoc: 4, LineSize: 64}, map[string]int{"n": 16, "b": 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := Run("nonexistent", mach.Config{Procs: 2}, nil); err == nil {
		t.Fatal("unknown app accepted")
	}
}

func TestReportSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("full report is slow")
	}
	var buf bytes.Buffer
	o := ReportOptions{
		Apps:       []string{"fft", "lu"},
		Procs:      4,
		ProcList:   []int{1, 2, 4},
		Scale:      SweepScale,
		CacheSizes: []int{4 << 10, 64 << 10, 1 << 20},
		LineSizes:  []int{32, 64},
	}
	if err := Report(&buf, o); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Table 1", "Figure 1", "Figure 4", "Figure 7", "Figure 8", "Table 3"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("report missing %s", want)
		}
	}
}

// TestReportRunsOneGraph: a report is one job graph — one runner
// summary line — in which every program point executes exactly once:
// fft and lu at three processor counts, plus the ocean (both Figure-5
// sizes), radix and raytrace points Figures 5–6 add, 18 in all.
func TestReportRunsOneGraph(t *testing.T) {
	if testing.Short() {
		t.Skip("full report is slow")
	}
	var out, progress bytes.Buffer
	o := ReportOptions{
		EngineOptions: EngineOptions{Progress: &progress},
		Apps:          []string{"fft", "lu"},
		Procs:         4,
		ProcList:      []int{1, 2, 4},
		Scale:         SweepScale,
		CacheSizes:    []int{4 << 10, 64 << 10},
		LineSizes:     []int{64},
	}
	if err := Report(&out, o); err != nil {
		t.Fatal(err)
	}
	summaries, execs := 0, map[string]int{}
	for _, line := range strings.Split(progress.String(), "\n") {
		if strings.HasPrefix(line, "runner: ") {
			summaries++
		}
		if _, label, ok := strings.Cut(line, "] exec "); ok {
			execs[label]++
		}
	}
	if summaries != 1 {
		t.Errorf("report ran %d graphs, want 1", summaries)
	}
	if len(execs) != 18 {
		t.Errorf("report executed %d program points, want 18: %v", len(execs), execs)
	}
	for label, n := range execs {
		if n != 1 {
			t.Errorf("exec %s ran %d times", label, n)
		}
	}
}

func TestPaperScaleOverridesExistForSuite(t *testing.T) {
	for _, app := range Suite {
		o := PaperScale.Overrides(app)
		if len(o) == 0 {
			t.Errorf("%s has no paper-scale overrides", app)
		}
		sw := SweepScale.Overrides(app)
		if len(sw) == 0 {
			t.Errorf("%s has no sweep-scale overrides", app)
		}
		// Paper problems must be strictly larger than sweep problems in
		// their leading size parameter.
		for k, v := range o {
			if swv, ok := sw[k]; ok && k != "steps" && k != "iters" && k != "frames" && v < swv {
				t.Errorf("%s: paper %s=%d < sweep %d", app, k, v, swv)
			}
		}
	}
}

func TestScaleOverridesAreValidOptions(t *testing.T) {
	for _, app := range Suite {
		a, err := apps.Get(app)
		if err != nil {
			t.Fatal(err)
		}
		for _, sc := range []Scale{SweepScale, PaperScale} {
			for k := range sc.Overrides(app) {
				if _, ok := a.Defaults[k]; !ok {
					t.Errorf("%s: scale override %q is not a registered option", app, k)
				}
			}
		}
	}
}
