package core

import (
	"cmp"
	"context"
	"fmt"
	"io"

	"splash2/internal/memsys"
	"splash2/internal/runner"
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

// request converts the options to the request they describe, once, and
// validates it with Canonical: unset fields take the Request defaults,
// and AllAssocs selects Figure 3's four associativities (Table 2 and the
// pruning advice stay four-way). The report kind is private, so the
// request canonicalizes as results and takes kind afterwards. Results
// reads no sample field, so a positive SampleRate and its seed are put
// back afterwards too: they add the sampled estimate. keepGoing is the
// engine's failure policy.
func (o ReportOptions) request(kind string, keepGoing bool) (Request, error) {
	r := Request{
		Kind: KindResults, Apps: o.Apps, Procs: o.Procs, ProcList: o.ProcList,
		Scale: ScaleName(o.Scale), CacheSizes: o.CacheSizes, LineSizes: o.LineSizes,
		SampleRate: o.SampleRate, SampleSeed: o.SampleSeed, KeepGoing: keepGoing,
	}
	if o.AllAssocs {
		r.Assocs = []int{1, 2, 4, memsys.FullyAssoc}
	}
	cr, err := r.Canonical()
	if err != nil {
		return cr, err
	}
	if o.SampleRate > 0 {
		cr.SampleRate, cr.SampleSeed = o.SampleRate, cmp.Or(o.SampleSeed, 1)
	}
	cr.Kind = kind
	return cr, nil
}

// kindReport selects what Report prints: every kind's sections plus the
// report-only Figures 5 and 6. It is not a request kind.
const kindReport = "report"

// section is one table or figure of the characterization: the kind that
// selects it, the submission of its jobs to the request's one graph (nil
// for a section that only renders what an earlier one computed), and its
// text rendering. A request kind is the set of sections carrying its
// name.
type section struct {
	kind   string
	submit func(b *batch, req Request) fill
	render func(w io.Writer, req Request, res *Results, plot bool)
}

// fill reads a section's job results into res once the request's graph
// has completed. Fills run in table order, so a section may derive from
// an earlier one's fields (Table 2 from Figure 3's curves).
type fill func(res *Results) error

// selected reports whether the section runs for req. A single kind runs
// its own sections; results runs every kind's, and a report adds its own.
// Both include the sampled estimate only at a positive SampleRate.
func (s section) selected(req Request) bool {
	switch req.Kind {
	case s.kind:
		return true
	case KindResults, kindReport:
		if s.kind == KindWorkingSetsSampled {
			return req.SampleRate > 0
		}
		return s.kind != kindReport
	}
	return false
}

// sections is the paper's evaluation in report order. Do, CollectResults
// and Report all walk it; a new table or figure is a new entry.
var sections = []section{
	{KindTable1, (*batch).table1, func(w io.Writer, req Request, res *Results, plot bool) {
		fmt.Fprintln(w, "\n== Table 1: instruction breakdown ==")
		RenderTable1(w, res.Table1)
	}},
	{KindSpeedups, (*batch).speedups, func(w io.Writer, req Request, res *Results, plot bool) {
		fmt.Fprintln(w, "\n== Figure 1: PRAM speedups ==")
		RenderSpeedups(w, res.Speedups)
		if plot {
			var xs []string
			for _, p := range req.ProcList {
				xs = append(xs, fmt.Sprintf("%d", p))
			}
			var series []textplot.Series
			for _, c := range res.Speedups {
				if c.Failed == "" {
					series = append(series, textplot.Series{Name: c.App, Values: c.Speedup})
				}
			}
			fmt.Fprintln(w)
			textplot.LineChart(w, "speedup vs processors", xs, series, 64, 16)
		}
	}},
	{KindSync, (*batch).syncProfiles, func(w io.Writer, req Request, res *Results, plot bool) {
		fmt.Fprintf(w, "\n== Figure 2: time in synchronization (%d procs) ==\n", req.Procs)
		RenderSyncProfiles(w, res.Sync)
	}},
	{KindWorkingSets, (*batch).workingSets, func(w io.Writer, req Request, res *Results, plot bool) {
		fmt.Fprintln(w, "\n== Figure 3: miss rate vs cache size and associativity ==")
		RenderMissCurves(w, res.MissCurves)
		if plot {
			var xs []string
			for _, cs := range req.CacheSizes {
				xs = append(xs, fmt.Sprintf("%dK", cs/1024))
			}
			var series []textplot.Series
			for _, c := range res.MissCurves {
				if c.Assoc == 4 && c.Failed == "" {
					series = append(series, textplot.Series{Name: c.App, Values: c.MissRate})
				}
			}
			fmt.Fprintln(w)
			textplot.LineChart(w, "miss rate (%) vs cache size, 4-way", xs, series, 64, 16)
		}
	}},
	{KindWorkingSetsSampled, (*batch).sampledSets, func(w io.Writer, req Request, res *Results, plot bool) {
		fmt.Fprintf(w, "\n== Sampled working sets (SHARDS estimate, rate %g, fully associative) ==\n", req.SampleRate)
		RenderSampledCurves(w, res.Sampled)
	}},
	{KindWorkingSets, (*batch).table2, func(w io.Writer, req Request, res *Results, plot bool) {
		fmt.Fprintln(w, "\n== Table 2: important working sets ==")
		RenderTable2(w, res.Table2)
		fmt.Fprintln(w, "\n== Operating-point pruning (§5 methodology) ==")
		RenderPrune(w, res.PruneAdvice)
	}},
	{KindTraffic, func(b *batch, req Request) fill {
		groups := b.trafficGroups(req)
		return func(res *Results) (err error) {
			res.Traffic, err = groups()
			return err
		}
	}, func(w io.Writer, req Request, res *Results, plot bool) {
		fmt.Fprintln(w, "\n== Figure 4: traffic breakdown, 1 MB caches ==")
		RenderTraffic(w, res.Traffic)
	}},
	{KindTraffic, nil, func(w io.Writer, req Request, res *Results, plot bool) {
		fmt.Fprintln(w, "\n== Bandwidth needs (§6, per processor at 200M ops/s) ==")
		RenderBandwidth(w, res.Traffic, 200e6)
		if plot {
			var rows []string
			var bars [][]textplot.Segment
			for _, pts := range res.Traffic {
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
	}},
	{KindTable3, (*batch).table3, func(w io.Writer, req Request, res *Results, plot bool) {
		fmt.Fprintln(w, "\n== Table 3: growth of communication-to-computation ratio ==")
		RenderTable3(w, res.Table3)
	}},
	{kindReport, func(b *batch, req Request) fill {
		req.Apps, req.CacheSize = []string{"ocean"}, 1<<20
		small := b.trafficGroups(req)
		req.Opts = map[string]int{"n": oceanBigN(req)}
		big := b.trafficGroups(req)
		return func(res *Results) error {
			s, err := small()
			if err != nil {
				return err
			}
			l, err := big()
			res.figure5 = append(s, l...)
			return err
		}
	}, func(w io.Writer, req Request, res *Results, plot bool) {
		fmt.Fprintln(w, "\n== Figure 5: Ocean traffic at two problem sizes ==")
		RenderTraffic(w, res.figure5)
		fmt.Fprintf(w, "(second group: n=%d)\n", oceanBigN(req))
	}},
	{kindReport, func(b *batch, req Request) fill {
		req.Apps, req.CacheSize = []string{"fft", "ocean", "radix", "raytrace"}, 64<<10
		groups := b.trafficGroups(req)
		return func(res *Results) (err error) {
			res.figure6, err = groups()
			return err
		}
	}, func(w io.Writer, req Request, res *Results, plot bool) {
		fmt.Fprintln(w, "\n== Figure 6: traffic with 64 KB caches (working set does not fit) ==")
		RenderTraffic(w, res.figure6)
	}},
	{KindLineSize, (*batch).lineSize, func(w io.Writer, req Request, res *Results, plot bool) {
		fmt.Fprintln(w, "\n== Figure 7: miss decomposition vs line size (1 MB caches) ==")
		RenderLineSizeMisses(w, res.LineSize)
	}},
	{KindLineSize, nil, func(w io.Writer, req Request, res *Results, plot bool) {
		fmt.Fprintln(w, "\n== Figure 8: traffic vs line size (1 MB caches) ==")
		RenderLineSizeTraffic(w, res.LineSize)
	}},
}

// oceanBigN is Figure 5's larger Ocean grid.
func oceanBigN(req Request) int {
	if req.Scale == ScaleName(DefaultScale) {
		return 128
	}
	return 64
}

// compute runs the sections req selects as one graph under ctx: every
// section submits its jobs, the graph runs once — so sections share
// program executions and no section waits for another's stragglers — and
// the fills then read the results in table order. Progress events of the
// graph alone stream to onProgress (nil disables). It returns the
// selected sections for rendering. A keep-going request that lost
// experiments still returns its results, carrying the failure manifest of
// its graph, with an ErrFailures-wrapped error: callers export the
// partial data and use errors.Is for the exit status.
//
// A request is first looked up whole: the results of a clean run are
// stored as one entry (storedResults), so a repeated request reads that
// entry and builds no graph at all.
func (e *Engine) compute(ctx context.Context, req Request, onProgress runner.ProgressFunc) (*Results, []section, error) {
	b := e.newBatch(ctx, req, onProgress)
	var selected []section
	for _, s := range sections {
		if s.selected(req) {
			selected = append(selected, s)
		}
	}
	key := resultsKey(req)
	if st, ok := runner.Lookup[storedResults](ctx, b.g, key); ok && st.Results != nil {
		st.Results.figure5, st.Results.figure6 = st.Figure5, st.Figure6
		return st.Results, selected, nil
	}
	var fills []fill
	for _, s := range selected {
		if s.submit != nil {
			fills = append(fills, s.submit(b, req))
		}
	}
	if err := b.wait(); err != nil {
		return nil, nil, err
	}
	res := &Results{Procs: req.Procs}
	for _, f := range fills {
		if err := f(res); err != nil {
			return nil, nil, err
		}
	}
	if m := b.lost(); m != nil {
		res.Failures = m.Failures
		return res, selected, m.err()
	}
	runner.Keep(ctx, b.g, key, storedResults{res, res.figure5, res.figure6})
	return res, selected, nil
}

// storedResults is a request's results as its one cache entry holds
// them: data, not rendered text, so rendering can change without a
// SuiteVersion bump. The codec stores exported fields only, so the
// report-only figures ride beside Results.
type storedResults struct {
	Results          *Results
	Figure5, Figure6 [][]TrafficPoint
}

// resultsKey is the key of req's stored results: the whole request
// compute runs — its kind (report, results or a single kind), the sample
// fields a report puts back after Canonical, Assocs, Apps, ProcList,
// Scale and the sizes — but not the failure policy or the deadline,
// which do not change a clean run's answer.
func resultsKey(req Request) runner.Key {
	req.KeepGoing, req.TimeoutMillis = false, 0
	return runner.KeyOf("request.results", req)
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
// own options apply; o.EngineOptions is ignored. Every section's jobs run
// in one graph; the sections then render in table order.
func (e *Engine) Report(w io.Writer, o ReportOptions) error {
	req, err := o.request(kindReport, e.keepGoing)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "SPLASH-2 characterization — %d processors, scale=%v\n", req.Procs, o.Scale)
	res, selected, err := e.compute(e.ctx, req, nil)
	if res == nil {
		return err
	}
	for _, s := range selected {
		s.render(w, req, res, o.Plot)
	}
	if err == nil {
		return nil
	}
	fmt.Fprintf(w, "\n== Failure manifest: %d experiment(s) lost ==\n", len(res.Failures))
	for _, rec := range res.Failures {
		fmt.Fprintf(w, "  %s: %s\n", rec.Label, rec.Cause)
	}
	if o.ManifestOut != nil {
		m := FailureManifest{Count: len(res.Failures), Failures: res.Failures}
		if err := m.WriteJSON(o.ManifestOut); err != nil {
			return fmt.Errorf("core: writing failure manifest: %w", err)
		}
	}
	return err
}

// CollectResults runs the full characterization and returns the raw data
// (the machine-readable twin of Report).
func CollectResults(o ReportOptions) (*Results, error) {
	e, err := NewEngine(o.EngineOptions)
	if err != nil {
		return nil, err
	}
	defer e.Close()
	return e.CollectResults(o)
}

// CollectResults is the engine form of the package-level CollectResults:
// Do(results) under the engine's own context and failure policy;
// o.EngineOptions is ignored.
func (e *Engine) CollectResults(o ReportOptions) (*Results, error) {
	req, err := o.request(KindResults, e.keepGoing)
	if err != nil {
		return nil, err
	}
	res, _, err := e.compute(e.ctx, req, nil)
	return res, err
}
