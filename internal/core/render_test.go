package core

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"splash2/internal/memsys"
)

var updateRender = flag.Bool("update", false, "rewrite testdata/render from the renderers")

// Cell values chosen to reach every formatting edge a table meets:
// zero and negative zero, negatives, exact binary ties at the printed
// precision (0.125 at two places, 1.03125 at four, 2.5 at none), a
// carry into a new leading digit (9.99995 at four places, 99.995 at
// two), a value below the last printed place, large magnitudes, NaN and
// the infinities.
const (
	tie2  = 0.125   // .2f → 0.12 (round half to even on the exact value)
	tie4  = 1.03125 // .4f → 1.0312
	carry = 9.99995
	tiny  = 4e-7
)

var negZero = math.Copysign(0, -1)

// renderCases calls each Render* function on synthetic data. Every table
// whose rows can be lost carries a FAILED(...) row in its middle: that
// row has fewer cells than its neighbours, so it splits the tabwriter
// column block above it from the one below. Table 2 and the pruning
// advice have no failed form (a lost curve is left out of both).
var renderCases = []struct {
	name   string
	render func(*bytes.Buffer)
}{
	{"table1", func(w *bytes.Buffer) {
		RenderTable1(w, []Table1Row{
			{App: "fft", Instr: 123456789, Flops: 0, Reads: 1, Writes: 22, SharedReads: 333, SharedWrites: 4444, BarriersPerProc: 7, Locks: 0, Pauses: 18446744073709551615},
			{App: "lu", Failed: "FAILED(exec lu p=4: injected error)"},
			{App: "water-nsq", Instr: 9, Flops: 98765, Reads: 100000000, Writes: 5, SharedReads: 0, SharedWrites: 0, BarriersPerProc: 12, Locks: 4096, Pauses: 3},
		})
	}},
	{"speedups", func(w *bytes.Buffer) {
		RenderSpeedups(w, []SpeedupCurve{
			{App: "fft", Procs: []int{1, 2, 4, 32}, Speedup: []float64{1, 1.995, tie2, 31.999}},
			{App: "cholesky", Procs: []int{1, 2, 4, 32}, Failed: "FAILED(run cholesky p=32: timeout)"},
			{App: "water-sp", Procs: []int{1, 2, 4, 32}, Speedup: []float64{0, negZero, -1.005, math.NaN()}},
			{App: "ocean", Procs: []int{1, 2, 4, 32}, Speedup: []float64{99.995, math.Inf(1), math.Inf(-1), 1e6}},
		})
	}},
	{"sync", func(w *bytes.Buffer) {
		RenderSyncProfiles(w, []SyncProfile{
			{App: "barnes", MinPct: 0, AvgPct: 0.05, MaxPct: 0.25, BarriersTotal: 64, LocksTotal: 12345, PausesTotal: 0},
			{App: "radix", Failed: "FAILED(run radix p=32: injected error)"},
			{App: "fmm", MinPct: 12.25, AvgPct: 66.65, MaxPct: 99.95, BarriersTotal: 1, LocksTotal: 2, PausesTotal: 3},
			{App: "lu", MinPct: negZero, AvgPct: -0.04, MaxPct: 100, BarriersTotal: 0, LocksTotal: 0, PausesTotal: 0},
		})
	}},
	{"misscurves", func(w *bytes.Buffer) {
		sizes := []int{1 << 10, 2 << 10, 64 << 10, 1 << 20}
		RenderMissCurves(w, []MissCurve{
			{App: "fft", Assoc: 1, CacheSizes: sizes, MissRate: []float64{12.345, tie2, 0, 0.005}},
			{App: "fft", Assoc: 4, CacheSizes: sizes, MissRate: []float64{100, 99.995, 1.015, tiny}},
			{App: "lu", Assoc: 4, CacheSizes: sizes, Failed: "FAILED(sweep lu: injected error)"},
			{App: "radix", Assoc: memsys.FullyAssoc, CacheSizes: sizes, MissRate: []float64{negZero, -0.125, 50, 7.5}},
		})
	}},
	{"sampled", func(w *bytes.Buffer) {
		sizes := []int{1 << 10, 32 << 10, 1 << 20}
		RenderSampledCurves(w, []SampledCurve{
			{App: "fft", Rate: 0.01, CacheSizes: sizes, MissRate: []float64{12.345, 3.5, 0}, BandLo: []float64{12.345, 3.25, -0.5}, BandHi: []float64{12.345, 3.75, 0.5}},
			{App: "lu", Rate: 0.01, CacheSizes: sizes, Failed: "FAILED(sampled lu: injected error)"},
			{App: "ocean", Rate: 1, CacheSizes: sizes, MissRate: []float64{tie2, 99.995, tiny}, BandLo: []float64{0, 99.99, 0}, BandHi: []float64{0.25, 100, 0.01}},
			{App: "radix", Rate: 0.0625, CacheSizes: sizes, MissRate: []float64{negZero, 1e-3, 100}, BandLo: []float64{negZero, 0, 100}, BandHi: []float64{negZero, 0.0025, 100}},
		})
	}},
	{"table2", func(w *bytes.Buffer) {
		RenderTable2(w, []Table2Row{
			{App: "fft", WS1: "one row of matrix", WS1Growth: "√DS", WS1Fits: "yes", WS2: "partition of DS", WS2Growth: "DS/P", WS2Fits: "maybe", MeasuredKnee: 8 << 10},
			{App: "ocean", WS1: "a few subrows", WS1Growth: "√(DS/P)", WS1Fits: "yes", WS2: "partition of DS", WS2Growth: "DS/P", WS2Fits: "maybe", MeasuredKnee: 0},
			{App: "volrend", WS1: "octree, part of ray", WS1Growth: "K·log DS", WS1Fits: "yes", WS2: "partition of DS", WS2Growth: "≈DS/P", WS2Fits: "maybe", MeasuredKnee: 1536},
		})
	}},
	{"prune", func(w *bytes.Buffer) {
		RenderPrune(w, []PruneAdvice{
			{App: "fft", Knees: []int{1 << 10, 32 << 10}, Representative: []int{512, 1 << 10, 1 << 20}, Redundant: []int{2 << 10, 4 << 10}},
			{App: "lu"},
			{App: "water-nsq", Knees: []int{1536}, Representative: []int{100}, Redundant: nil},
		})
	}},
	{"traffic", func(w *bytes.Buffer) {
		RenderTraffic(w, [][]TrafficPoint{
			{
				{App: "fft", Procs: 1, PerFlop: true, RemoteShared: 0, RemoteCold: tie4, RemoteCapacity: carry, RemoteWriteback: tiny, RemoteOverhead: 0.00005, LocalData: 123.45678, TrueSharing: 0},
				{App: "fft", Procs: 32, Failed: "FAILED(replay fft p=32: injected error)"},
			},
			{
				{App: "ocean", Procs: 32, PerFlop: true, RemoteShared: negZero, RemoteCold: -0.5, RemoteCapacity: 1e9, RemoteWriteback: 2, RemoteOverhead: 0.25, LocalData: 0, TrueSharing: 0.00015},
				{App: "raytrace", Procs: 4, PerFlop: false, RemoteShared: 0.1, RemoteCold: 0.2, RemoteCapacity: 0.3, RemoteWriteback: 0.4, RemoteOverhead: 0.5, LocalData: 0.6, TrueSharing: 0.7},
			},
		})
	}},
	{"bandwidth", func(w *bytes.Buffer) {
		RenderBandwidth(w, [][]TrafficPoint{
			{
				{App: "fft", Procs: 1, RemoteShared: tie4, RemoteCold: 0.00005},
				{App: "lu", Procs: 4, Failed: "FAILED(replay lu p=4: injected error)"},
			},
			{
				{App: "ocean", Procs: 32, RemoteShared: carry, RemoteOverhead: 0.25},
				{App: "radix", Procs: 2},
				{App: "water-sp", Procs: 8, RemoteShared: negZero, RemoteCold: -0.75},
			},
		}, 200e6)
	}},
	{"table3", func(w *bytes.Buffer) {
		RenderTable3(w, []Table3Row{
			{App: "cholesky", AnalyticForm: table3Forms["cholesky"], LowProcs: 2, HighProcs: 32, RatioLow: 0.000015, RatioHigh: 0.0123456, MeasuredGrow: 823.04},
			{App: "fft", AnalyticForm: table3Forms["fft"], LowProcs: 2, HighProcs: 32, RatioLow: 0.125, RatioHigh: 0.485, MeasuredGrow: 3.88},
			{App: "lu", AnalyticForm: table3Forms["lu"], Failed: "FAILED(replay lu p=32: injected error)"},
			{App: "radix", AnalyticForm: table3Forms["radix"], LowProcs: 4, HighProcs: 64, RatioLow: 0, RatioHigh: 0, MeasuredGrow: 0},
			{App: "water-sp", AnalyticForm: table3Forms["water-sp"], LowProcs: 2, HighProcs: 32, RatioLow: 0.000005, RatioHigh: carry, MeasuredGrow: tie2},
		})
	}},
	{"linesize-misses", func(w *bytes.Buffer) {
		RenderLineSizeMisses(w, [][]LineSizePoint{
			{
				{App: "fmm", LineSize: 8, ColdPct: 0.0625, CapacityPct: 0.0005, TruePct: 1.0625, FalsePct: 0, UpgradePct: 12.3456},
				{App: "fmm", LineSize: 256, ColdPct: 1, CapacityPct: 2, TruePct: 3, FalsePct: 4, UpgradePct: 5},
			},
			{{App: "lu", Failed: "FAILED(linesize lu: injected error)"}},
			{
				{App: "ocean", LineSize: 16, ColdPct: negZero, CapacityPct: -0.0015, TruePct: 99.9995, FalsePct: 1.897, UpgradePct: tiny},
			},
		})
	}},
	{"linesize-traffic", func(w *bytes.Buffer) {
		RenderLineSizeTraffic(w, [][]LineSizePoint{
			{
				{App: "fmm", LineSize: 8, PerFlop: true, RemoteData: tie4, RemoteOverhead: 0.00005, LocalData: carry},
				{App: "fmm", LineSize: 256, PerFlop: true, RemoteData: 0, RemoteOverhead: 0, LocalData: 0},
			},
			{{App: "lu", Failed: "FAILED(linesize lu: injected error)"}},
			{
				{App: "radix", LineSize: 64, PerFlop: false, RemoteData: negZero, RemoteOverhead: -2.5, LocalData: 1e7},
			},
		})
	}},
}

// TestRendererGoldens pins every table renderer's bytes, FAILED rows,
// multi-byte cells and rounding edges included, against
// testdata/render/<name>.txt. Regenerate after a deliberate change with
// `go test ./internal/core -run TestRendererGoldens -update`.
func TestRendererGoldens(t *testing.T) {
	for _, c := range renderCases {
		t.Run(c.name, func(t *testing.T) {
			var buf bytes.Buffer
			c.render(&buf)
			golden := filepath.Join("testdata", "render", c.name+".txt")
			if *updateRender {
				if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if bytes.Equal(buf.Bytes(), want) {
				return
			}
			got, exp := strings.Split(buf.String(), "\n"), strings.Split(string(want), "\n")
			for i := 0; i < len(got) && i < len(exp); i++ {
				if got[i] != exp[i] {
					t.Fatalf("%s differs at line %d:\n got: %q\nwant: %q", golden, i+1, got[i], exp[i])
				}
			}
			t.Fatalf("%s: got %d lines, want %d", golden, len(got), len(exp))
		})
	}
}

// fixedSeeds reach appendFixed's edges: exact ties at every precision,
// carries into a new leading digit, both zeros, NaN, the infinities,
// subnormals, powers of ten and the ends of its fast range.
var fixedSeeds = []float64{
	0.5, 1.5, 2.5, 0.125, 0.375, 1.03125, 0.0625, 0.03125, 9.99995, 99.995,
	0.95, 9.5, 999999.5, 0.05, 0.00005, 0.00006, 0.000049, 1e-7,
	0, negZero, math.NaN(), math.Inf(1), math.Inf(-1),
	math.SmallestNonzeroFloat64, 2.2250738585072014e-308, math.MaxFloat64,
	1, 10, 100, 1e15, 1e16, 1e17, 9.999999999999999e15, 123456789.123456789,
	-0.125, -9.99995, -1e-9, -1e300,
}

func checkFixed(t *testing.T, v float64, prec int) {
	t.Helper()
	if got, want := string(appendFixed(nil, v, prec)), fmt.Sprintf("%.*f", prec, v); got != want {
		t.Fatalf("appendFixed(%v [%#x], %d) = %q, fmt prints %q", v, math.Float64bits(v), prec, got, want)
	}
}

// FuzzAppendFixed holds appendFixed to fmt's %.*f for any float64 bit
// pattern at precisions 0–6.
func FuzzAppendFixed(f *testing.F) {
	for _, v := range fixedSeeds {
		for prec := uint8(0); prec <= 6; prec++ {
			f.Add(math.Float64bits(v), prec)
		}
	}
	f.Fuzz(func(t *testing.T, bits uint64, prec uint8) {
		checkFixed(t, math.Float64frombits(bits), int(prec%7))
	})
}

// TestAppendFixedMatchesFmt compares appendFixed with fmt on random bit
// patterns, on random values of a report's magnitudes, and on exact
// ties k/2^n, at precisions 0–6.
func TestAppendFixedMatchesFmt(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 20000; i++ {
		prec := i % 7
		checkFixed(t, math.Float64frombits(rng.Uint64()), prec)
		checkFixed(t, (rng.Float64()-0.25)*math.Pow(10, float64(rng.IntN(24)-12)), prec)
		checkFixed(t, float64(rng.IntN(1<<20))/float64(uint64(1)<<rng.IntN(24)), prec)
	}
}
