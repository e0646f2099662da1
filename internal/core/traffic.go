package core

import (
	"cmp"
	"io"

	"splash2/internal/mach"
	"splash2/internal/runner"
)

// TrafficPoint is one program's traffic breakdown at one processor count
// and cache configuration (paper Figures 4–6), normalized to bytes per
// FLOP for the floating-point codes and bytes per instruction otherwise.
type TrafficPoint struct {
	App       string
	Procs     int
	CacheSize int
	PerFlop   bool

	// Normalized bytes per FLOP (or instruction), by category.
	RemoteShared    float64
	RemoteCold      float64
	RemoteCapacity  float64
	RemoteWriteback float64
	RemoteOverhead  float64
	LocalData       float64
	TrueSharing     float64

	// Failed is the FAILED(...) placeholder for a lost run (keep-going).
	Failed string `json:"failed,omitempty"`
}

// Remote returns total normalized internode traffic.
func (t TrafficPoint) Remote() float64 {
	return t.RemoteShared + t.RemoteCold + t.RemoteCapacity + t.RemoteWriteback + t.RemoteOverhead
}

// Total returns total normalized traffic including local data.
func (t TrafficPoint) Total() float64 { return t.Remote() + t.LocalData }

// trafficGroups submits the traffic breakdown of every program over
// req.ProcList at req.CacheSize (Figure 4): one full-memory pick per
// program and processor count. The returned function normalizes each
// program's runs into one group of points once the graph completes.
// Picks are keyed by configuration, so Table 3 and Figures 5–6 share
// Figure 4's, and every pick at one program point is served by that
// point's one execution.
func (b *batch) trafficGroups(req Request) func() ([][]TrafficPoint, error) {
	jobs := make([][]runner.Job[*RunResult], len(req.Apps))
	for i, name := range req.Apps {
		jobs[i] = make([]runner.Job[*RunResult], len(req.ProcList))
		for pi, p := range req.ProcList {
			cfg := mach.Config{Procs: p, CacheSize: req.CacheSize, Assoc: 4, LineSize: 64}
			jobs[i][pi] = b.runJob(name, cfg, req.overrides(name))
		}
	}
	return func() ([][]TrafficPoint, error) {
		var out [][]TrafficPoint
		for i, name := range req.Apps {
			var pts []TrafficPoint
			perFlop := flopBased(name)
			for pi, p := range req.ProcList {
				run, failed, err := degrade(b, jobs[i][pi])
				if err != nil {
					return nil, err
				}
				if failed != "" {
					pts = append(pts, TrafficPoint{App: name, Procs: p, CacheSize: req.CacheSize, PerFlop: perFlop, Failed: failed})
					continue
				}
				denom := opCount(perFlop, run.Stats.Procs)
				tr := run.Stats.Mem.Traffic
				pts = append(pts, TrafficPoint{
					App: name, Procs: p, CacheSize: req.CacheSize, PerFlop: perFlop,
					RemoteShared:    float64(tr.RemoteShared) / denom,
					RemoteCold:      float64(tr.RemoteCold) / denom,
					RemoteCapacity:  float64(tr.RemoteCapacity) / denom,
					RemoteWriteback: float64(tr.RemoteWriteback) / denom,
					RemoteOverhead:  float64(tr.RemoteOverhead) / denom,
					LocalData:       float64(tr.LocalData) / denom,
					TrueSharing:     float64(tr.TrueSharingData) / denom,
				})
			}
			out = append(out, pts)
		}
		return out, nil
	}
}

// RenderTraffic prints breakdowns, one row per (app, procs).
func RenderTraffic(w io.Writer, groups [][]TrafficPoint) {
	r := newTable(w)
	r.str("Code\tP\tUnit\tRem.Shared\tRem.Cold\tRem.Cap\tRem.WB\tRem.Ovhd\tLocal\tTrueShare\tTotal").end()
	for _, pts := range groups {
		for _, t := range pts {
			r.str(t.App).next().int(t.Procs)
			if t.Failed != "" {
				r.cell(t.Failed).end()
				continue
			}
			r.cell(unitLabel(t.PerFlop))
			for _, v := range [...]float64{t.RemoteShared, t.RemoteCold, t.RemoteCapacity,
				t.RemoteWriteback, t.RemoteOverhead, t.LocalData, t.TrueSharing, t.Total()} {
				r.next().fixed(v, 4)
			}
			r.end()
		}
	}
	r.flush()
}

// Table3Row gives the communication-to-computation growth of one program:
// the paper's analytic form plus this run's measured ratio of true-sharing
// traffic per unit computation at two processor counts.
type Table3Row struct {
	App          string
	AnalyticForm string
	LowProcs     int
	HighProcs    int
	RatioLow     float64 // true sharing bytes per flop/instr
	RatioHigh    float64
	MeasuredGrow float64 // RatioHigh / RatioLow

	// Failed is the FAILED(...) placeholder when either measurement was
	// lost (keep-going).
	Failed string `json:"failed,omitempty"`
}

// table3Forms is the paper's Table 3 (analytic comm/comp growth rates).
var table3Forms = map[string]string{
	"barnes":    "≈ √P·log(DS) / DS (input dependent)",
	"cholesky":  "≈ √P / √DS (structure dependent)",
	"fft":       "(P−1)/P — all-to-all transpose",
	"fmm":       "≈ √P / √DS",
	"lu":        "√P / √DS",
	"ocean":     "√P / √DS",
	"radiosity": "unpredictable",
	"radix":     "(P−1)/P — all-to-all permutation",
	"raytrace":  "unpredictable",
	"volrend":   "unpredictable",
	"water-nsq": "≈ (P−1)/P (all molecules read)",
	"water-sp":  "≈ (P/DS)^(2/3)",
}

// table3 measures comm/comp at two processor counts — the first of
// req.ProcList above one and the last — with 1 MB caches, and reports the
// growth. The picks are Figure 4's at the same counts.
func (b *batch) table3(req Request) fill {
	lowP, highP := req.ProcList[0], req.ProcList[len(req.ProcList)-1]
	if lowP < 2 && len(req.ProcList) > 1 {
		lowP = req.ProcList[1]
	}
	req.ProcList, req.CacheSize = []int{lowP, highP}, 1<<20
	groups := b.trafficGroups(req)
	return func(res *Results) error {
		groups, err := groups()
		if err != nil {
			return err
		}
		for i, name := range req.Apps {
			pts := groups[i]
			row := Table3Row{
				App: name, AnalyticForm: table3Forms[name],
				LowProcs: lowP, HighProcs: highP,
			}
			if row.Failed = cmp.Or(pts[0].Failed, pts[1].Failed); row.Failed != "" {
				res.Table3 = append(res.Table3, row)
				continue
			}
			row.RatioLow, row.RatioHigh = pts[0].TrueSharing, pts[1].TrueSharing
			if row.RatioLow > 0 {
				row.MeasuredGrow = row.RatioHigh / row.RatioLow
			}
			res.Table3 = append(res.Table3, row)
		}
		return nil
	}
}

// RenderTable3 prints Table 3.
func RenderTable3(w io.Writer, rows []Table3Row) {
	r := newTable(w)
	r.str("Code\tGrowth of comm/comp (paper)\tmeasured @P1\tmeasured @P2\tgrowth").end()
	for _, x := range rows {
		r.str(x.App).cell(x.AnalyticForm)
		if x.Failed != "" {
			r.cell(x.Failed).end()
			continue
		}
		r.next().fixed(x.RatioLow, 5).str(" (P=").int(x.LowProcs).str(")")
		r.next().fixed(x.RatioHigh, 5).str(" (P=").int(x.HighProcs).str(")")
		r.cell("×").fixed(x.MeasuredGrow, 2).end()
	}
	r.flush()
}

// unitLabel names the unit traffic is normalized by.
func unitLabel(perFlop bool) string {
	if perFlop {
		return "B/FLOP"
	}
	return "B/instr"
}
