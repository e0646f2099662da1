package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"io"
	"strings"
	"time"

	"splash2"
	"splash2/internal/core"
)

func (b *bench) reportOptions(scale splash2.Scale) core.ReportOptions {
	return core.ReportOptions{Apps: b.cfg.apps, Procs: b.cfg.procs, ProcList: b.cfg.procList, Scale: scale}
}

// report is one `characterize -scale S -cache-dir dir`: fresh engine with
// cache, leases and journal on, text report, close.
func (b *bench) report(workload, dir string, scale splash2.Scale) string {
	root := b.tr.begin(workload, "report", 0)
	defer b.tr.end(root)
	id := b.tr.begin(workload, "core.NewEngine", root)
	e, err := core.NewEngine(core.EngineOptions{Workers: b.nproc, CacheDir: dir})
	b.tr.end(id)
	if !b.ok(err, "report: open engine") {
		return ""
	}
	var buf bytes.Buffer
	id = b.tr.begin(workload, "core.Engine.Report", root)
	err = e.Report(&buf, b.reportOptions(scale))
	b.tr.end(id)
	b.ok(err, "report")
	id = b.tr.begin(workload, "core.Engine.Close", root)
	err = e.Close()
	b.tr.end(id)
	b.ok(err, "report: close engine")
	return buf.String()
}

var reportHeaders = []string{
	"== Table 1:", "== Figure 1:", "== Figure 2:", "== Figure 3:", "== Table 2:",
	"== Operating-point pruning", "== Figure 4:", "== Bandwidth needs", "== Table 3:",
	"== Figure 5:", "== Figure 6:", "== Figure 7:", "== Figure 8:",
}

func (b *bench) checkReport(text string) {
	missing := ""
	for _, h := range reportHeaders {
		if !strings.Contains(text, h) {
			missing = h
		}
	}
	b.check(missing == "" && !strings.Contains(text, "FAILED("), "report output: missing %q or has FAILED(", missing)
}

// warmUp is report-cold's set-up: one discarded report that grows the heap
// and faults in the binary. It runs at sweep scale so that set-up stays a
// small share of the run.
func (b *bench) warmUp() { b.report(reportCold, b.tempDir(), splash2.SweepScale) }

func (b *bench) runReportCold(seconds float64) samples {
	var s samples
	t0 := time.Now()
	b.warmUp()
	s.setup = append(s.setup, time.Since(t0).Seconds())
	s.timed(b.cfg.minCold, seconds, func(int) {
		b.checkReport(b.report(reportCold, b.tempDir(), b.cfg.scale))
	})
	return s
}

func (b *bench) runReportWarm(seconds float64) samples {
	var s samples
	dir := b.tempDir()
	t0 := time.Now()
	b.checkReport(b.report(reportWarm, dir, b.cfg.scale))
	s.setup = append(s.setup, time.Since(t0).Seconds())
	var first string
	s.timed(b.cfg.minWarm, seconds, func(i int) {
		text := b.report(reportWarm, dir, b.cfg.scale)
		if i == 0 {
			first = text
			b.checkReport(text)
		}
		b.check(text == first, "report-warm: iteration %d differs from the first", i)
	})
	return s
}

// tracedReports is the traced twin of report-cold and report-warm: the
// cold report is issued section by section through Engine.Do on one shared
// engine, so each figure's cost is a span, and the directory it fills
// serves the warm iteration and the simulated-statistics digest.
func (b *bench) tracedReports() {
	dir := b.tempDir()
	e, err := core.NewEngine(core.EngineOptions{Workers: b.nproc, CacheDir: dir})
	if !b.ok(err, "sections: open engine") {
		return
	}
	root := b.tr.begin(reportCold, "report", 0)
	for _, kind := range sectionKinds {
		id := b.tr.begin(reportCold, "core.Engine.Do "+kind, root)
		_, err := e.Do(context.Background(), core.Request{
			Kind: kind, Apps: b.cfg.apps, Procs: b.cfg.procs, ProcList: b.cfg.procList, Scale: core.ScaleName(b.cfg.scale),
		}, nil)
		b.set("core.section."+kind+".s", b.tr.end(id), "s")
		b.ok(err, "section "+kind)
	}
	// Figures 5 and 6 are not request kinds; the report itself runs what
	// the sections left.
	id := b.tr.begin(reportCold, "core.Engine.Report rest", root)
	var buf bytes.Buffer
	err = e.Report(&buf, b.reportOptions(b.cfg.scale))
	b.set("core.section.rest.s", b.tr.end(id), "s")
	b.set("trace.report-cold.wall_s", b.tr.end(root), "s")
	b.ok(err, "sections: rest of report")
	b.checkReport(buf.String())
	b.set("core.cold.executed", float64(e.Counts().Executed), "count")
	b.ok(e.Close(), "sections: close engine")

	t0 := time.Now()
	b.checkReport(b.report(reportWarm, dir, b.cfg.scale))
	b.set("trace.report-warm.wall_s", time.Since(t0).Seconds(), "s")

	e, err = core.NewEngine(core.EngineOptions{Workers: b.nproc, CacheDir: dir})
	if !b.ok(err, "digest: open engine") {
		return
	}
	res, err := e.CollectResults(b.reportOptions(b.cfg.scale))
	if !b.ok(err, "digest: collect results") {
		return
	}
	c := e.Counts()
	b.check(c.Executed == 0, "warm engine executed %d jobs", c.Executed)
	b.set("core.warm.cache_hits", float64(c.CacheHits), "count")
	b.ok(e.Close(), "digest: close engine")
	b.set("sim.report_digest48", reportDigest(res), "count")
	b.set("core.export_json.ms", 1e3*b.sample(func() { b.ok(res.WriteJSON(io.Discard), "export json") }), "ms")
}

// sectionKinds are the single-figure request kinds in report order.
var sectionKinds = []string{
	core.KindTable1, core.KindSpeedups, core.KindSync, core.KindWorkingSets,
	core.KindWorkingSetsSampled, core.KindTraffic, core.KindTable3, core.KindLineSize,
}

// reportDigest hashes the schedule-independent part of a characterization:
// FLOPS of every program, and Table 1, Figure 3 and Figures 7-8 of the
// barrier-only programs. Everything else follows lock order or live
// interleaving and differs between two runs of one commit.
func reportDigest(res *core.Results) float64 {
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, r := range res.Table1 {
		enc.Encode([]any{r.App, r.Flops})
		if stableApps[r.App] {
			enc.Encode(r)
		}
	}
	for _, c := range res.MissCurves {
		if stableApps[c.App] {
			enc.Encode(c)
		}
	}
	for _, pts := range res.LineSize {
		if len(pts) > 0 && stableApps[pts[0].App] {
			enc.Encode(pts)
		}
	}
	return digest48(h.Sum(nil))
}

// digest48 is the first 48 bits of a hash as a number JSON carries exactly.
func digest48(sum []byte) float64 {
	return float64(binary.BigEndian.Uint64(sum[:8]) >> 16)
}
