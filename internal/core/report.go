package core

import (
	"fmt"
	"io"

	"splash2/internal/memsys"
	"splash2/internal/textplot"
)

// ReportOptions controls the full characterization run. The embedded
// EngineOptions configure the engine that the package-level Report and
// CollectResults create; the Engine methods of the same names run on the
// receiver's own configuration and ignore them.
type ReportOptions struct {
	EngineOptions

	Apps       []string
	Procs      int   // default 32 (the paper's fixed count, §2.2)
	ProcList   []int // speedup / traffic sweep points
	Scale      Scale
	AllAssocs  bool // Figure 3 with 1/2/4-way and fully associative
	Plot       bool // render ASCII charts alongside the tables
	CacheSizes []int
	LineSizes  []int

	// ManifestOut receives the JSON failure manifest at the end of a
	// keep-going run that lost experiments; nil skips writing it.
	ManifestOut io.Writer

	// SampleRate, when positive, adds the SHARDS-sampled working-set
	// estimate (with confidence bands) alongside the exact Figure-3 sweep
	// (cmd/characterize's -sample-rate flag); range (0, 1].
	SampleRate float64
	// SampleSeed seeds the estimator's spatial hash (0 selects 1).
	SampleSeed uint64
}

// WithDefaults fills unset fields.
func (o ReportOptions) WithDefaults() ReportOptions {
	if len(o.Apps) == 0 {
		o.Apps = Suite
	}
	if o.Procs == 0 {
		o.Procs = 32
	}
	if len(o.ProcList) == 0 {
		o.ProcList = []int{1, 2, 4, 8, 16, 32}
	}
	if len(o.CacheSizes) == 0 {
		o.CacheSizes = DefaultCacheSizes()
	}
	if len(o.LineSizes) == 0 {
		o.LineSizes = DefaultLineSizes()
	}
	return o
}

// Report runs the complete characterization — every table and figure of
// the paper — writing the formatted results to w. Experiments are
// scheduled through an engine configured by o.EngineOptions; identical
// experiments needed by several sections execute once.
func Report(w io.Writer, o ReportOptions) error {
	e, err := NewEngine(o.EngineOptions)
	if err != nil {
		return err
	}
	defer e.Close()
	return e.Report(w, o)
}

// Report is the engine form of the package-level Report. The engine's
// own options apply; o.EngineOptions is ignored.
func (e *Engine) Report(w io.Writer, o ReportOptions) error {
	o = o.WithDefaults()

	fmt.Fprintf(w, "SPLASH-2 characterization — %d processors, scale=%v\n\n", o.Procs, o.Scale)

	fmt.Fprintln(w, "== Table 1: instruction breakdown ==")
	t1, err := e.Table1(o.Apps, o.Procs, o.Scale)
	if err != nil {
		return err
	}
	RenderTable1(w, t1)

	fmt.Fprintln(w, "\n== Figure 1: PRAM speedups ==")
	sp, err := e.Speedups(o.Apps, o.ProcList, o.Scale)
	if err != nil {
		return err
	}
	RenderSpeedups(w, sp)
	if o.Plot {
		var xs []string
		for _, p := range o.ProcList {
			xs = append(xs, fmt.Sprintf("%d", p))
		}
		var series []textplot.Series
		for _, c := range sp {
			if c.Failed != "" {
				continue
			}
			series = append(series, textplot.Series{Name: c.App, Values: c.Speedup})
		}
		fmt.Fprintln(w)
		textplot.LineChart(w, "speedup vs processors", xs, series, 64, 16)
	}

	fmt.Fprintf(w, "\n== Figure 2: time in synchronization (%d procs) ==\n", o.Procs)
	sync, err := e.SyncProfiles(o.Apps, o.Procs, o.Scale)
	if err != nil {
		return err
	}
	RenderSyncProfiles(w, sync)

	fmt.Fprintln(w, "\n== Figure 3: miss rate vs cache size and associativity ==")
	assocs := []int{4}
	if o.AllAssocs {
		assocs = []int{1, 2, 4, memsys.FullyAssoc}
	}
	ws, err := e.WorkingSets(o.Apps, o.Procs, o.CacheSizes, assocs, o.Scale)
	if err != nil {
		return err
	}
	RenderMissCurves(w, ws)

	if o.Plot {
		var xs []string
		for _, cs := range o.CacheSizes {
			xs = append(xs, fmt.Sprintf("%dK", cs/1024))
		}
		var series []textplot.Series
		for _, c := range ws {
			if c.Assoc == 4 && c.Failed == "" {
				series = append(series, textplot.Series{Name: c.App, Values: c.MissRate})
			}
		}
		fmt.Fprintln(w)
		textplot.LineChart(w, "miss rate (%) vs cache size, 4-way", xs, series, 64, 16)
	}

	if o.SampleRate > 0 {
		seed := o.SampleSeed
		if seed == 0 {
			seed = 1
		}
		fmt.Fprintf(w, "\n== Sampled working sets (SHARDS estimate, rate %g, fully associative) ==\n", o.SampleRate)
		sw, err := e.WorkingSetsSampled(o.Apps, o.Procs, o.CacheSizes, o.SampleRate, seed, o.Scale)
		if err != nil {
			return err
		}
		RenderSampledCurves(w, sw)
	}

	fmt.Fprintln(w, "\n== Table 2: important working sets ==")
	var fourWay []MissCurve
	for _, c := range ws {
		if c.Assoc == 4 {
			fourWay = append(fourWay, c)
		}
	}
	RenderTable2(w, Table2(fourWay))

	fmt.Fprintln(w, "\n== Operating-point pruning (§5 methodology) ==")
	var advice []PruneAdvice
	for _, c := range fourWay {
		if c.Failed != "" {
			continue
		}
		advice = append(advice, Prune(c))
	}
	RenderPrune(w, advice)

	fmt.Fprintln(w, "\n== Figure 4: traffic breakdown, 1 MB caches ==")
	tr, err := e.TrafficSuite(o.Apps, o.ProcList, 1<<20, o.Scale)
	if err != nil {
		return err
	}
	RenderTraffic(w, tr)

	fmt.Fprintln(w, "\n== Bandwidth needs (§6, per processor at 200M ops/s) ==")
	RenderBandwidth(w, tr, 200e6)
	if o.Plot {
		var rows []string
		var bars [][]textplot.Segment
		for _, pts := range tr {
			last := pts[len(pts)-1]
			if last.Failed != "" {
				continue
			}
			rows = append(rows, fmt.Sprintf("%s@%d", last.App, last.Procs))
			bars = append(bars, []textplot.Segment{
				{Label: "rem.data", Value: last.RemoteShared + last.RemoteCold + last.RemoteCapacity + last.RemoteWriteback},
				{Label: "rem.ovhd", Value: last.RemoteOverhead},
				{Label: "local", Value: last.LocalData},
			})
		}
		fmt.Fprintln(w)
		textplot.StackedBars(w, "traffic breakdown (B/op) at max P", rows, bars, 48)
	}

	fmt.Fprintln(w, "\n== Table 3: growth of communication-to-computation ratio ==")
	lowP := o.ProcList[0]
	if lowP < 2 && len(o.ProcList) > 1 {
		lowP = o.ProcList[1]
	}
	t3, err := e.Table3(o.Apps, lowP, o.ProcList[len(o.ProcList)-1], o.Scale)
	if err != nil {
		return err
	}
	RenderTable3(w, t3)

	fmt.Fprintln(w, "\n== Figure 5: Ocean traffic at two problem sizes ==")
	oceanSmall, err := e.Traffic("ocean", o.ProcList, 1<<20, o.Scale, nil)
	if err != nil {
		return err
	}
	bigN := 64
	if o.Scale == DefaultScale {
		bigN = 128
	}
	oceanBig, err := e.Traffic("ocean", o.ProcList, 1<<20, o.Scale, map[string]int{"n": bigN})
	if err != nil {
		return err
	}
	RenderTraffic(w, [][]TrafficPoint{oceanSmall, oceanBig})
	fmt.Fprintf(w, "(second group: n=%d)\n", bigN)

	fmt.Fprintln(w, "\n== Figure 6: traffic with 64 KB caches (working set does not fit) ==")
	small := []string{"fft", "ocean", "radix", "raytrace"}
	tr64, err := e.TrafficSuite(small, o.ProcList, 64<<10, o.Scale)
	if err != nil {
		return err
	}
	RenderTraffic(w, tr64)

	fmt.Fprintln(w, "\n== Figure 7: miss decomposition vs line size (1 MB caches) ==")
	lsz, err := e.LineSizeSuite(o.Apps, o.Procs, 1<<20, o.LineSizes, o.Scale)
	if err != nil {
		return err
	}
	RenderLineSizeMisses(w, lsz)

	fmt.Fprintln(w, "\n== Figure 8: traffic vs line size (1 MB caches) ==")
	RenderLineSizeTraffic(w, lsz)

	return e.finishReport(w, o)
}

// finishReport closes a keep-going run: when experiments were lost it
// writes the failure manifest (to o.ManifestOut if set), summarizes the
// damage in the report itself, and returns an ErrFailures-wrapped error
// so callers can distinguish degraded completion from clean success.
func (e *Engine) finishReport(w io.Writer, o ReportOptions) error {
	if !e.keepGoing {
		return nil
	}
	fails := e.Failures()
	if len(fails) == 0 {
		return nil
	}
	m := NewFailureManifest(fails)
	fmt.Fprintf(w, "\n== Failure manifest: %d experiment(s) lost ==\n", m.Count)
	for _, rec := range m.Failures {
		fmt.Fprintf(w, "  %s: %s\n", rec.Label, rec.Cause)
	}
	if o.ManifestOut != nil {
		if err := m.WriteJSON(o.ManifestOut); err != nil {
			return fmt.Errorf("core: writing failure manifest: %w", err)
		}
	}
	return fmt.Errorf("core: %d experiment(s) lost: %w", m.Count, ErrFailures)
}
