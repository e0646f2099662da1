package core

import (
	"cmp"
	"context"
	"fmt"
	"io"
	"text/tabwriter"

	"splash2/internal/memsys"
	"splash2/internal/runner"
)

// LineSizePoint is one program's behaviour at one cache line size (paper
// Figures 7–8, §7: spatial locality and false sharing): the miss rate
// decomposed by cause, and the traffic it generates.
type LineSizePoint struct {
	App      string
	LineSize int

	// Miss rates in percent of references, by kind.
	ColdPct     float64
	CapacityPct float64
	TruePct     float64
	FalsePct    float64
	UpgradePct  float64

	// Normalized traffic (bytes per FLOP or per instruction).
	PerFlop        bool
	RemoteData     float64
	RemoteOverhead float64
	LocalData      float64

	// Failed is the FAILED(...) placeholder for a lost sweep (keep-going);
	// a lost program contributes a single failed point.
	Failed string `json:"failed,omitempty"`
}

// TotalMissPct returns the total miss rate.
func (l LineSizePoint) TotalMissPct() float64 {
	return l.ColdPct + l.CapacityPct + l.TruePct + l.FalsePct
}

// DefaultLineSizes are the paper's §7 sweep points.
func DefaultLineSizes() []int { return []int{8, 16, 32, 64, 128, 256} }

// lineSize measures Figures 7–8: miss decomposition and traffic versus
// line size at req.CacheSize for every program. Each program's trace is
// replayed at every line size, keeping the reference stream identical
// across the sweep. A program's lazy record pick feeds one fused
// all-line-sizes replay; the traffic is normalised by the counters of
// the count-only run at req.Procs (Table 1's pick, served by the same
// point's execution), so a fully-cached sweep never re-records the
// trace.
func (b *batch) lineSize(req Request) fill {
	sweeps := make([]runner.Job[[]memsys.Stats], len(req.Apps))
	runs := b.countRuns(req, req.Procs)
	for i, name := range req.Apps {
		id := req.trace(name)
		sweeps[i] = lineSizeSweepJob(b.g, b.recordJob(id), id, req)
	}
	return func(res *Results) error {
		for i, name := range req.Apps {
			perFlop := flopBased(name)
			run, failed, err := degrade(b, runs[i])
			if err != nil {
				return err
			}
			sweep, sweepFailed, err := degrade(b, sweeps[i])
			if err != nil {
				return err
			}
			if failed = cmp.Or(failed, sweepFailed); failed != "" {
				// A lost program contributes a single failed point.
				res.LineSize = append(res.LineSize, []LineSizePoint{{App: name, PerFlop: perFlop, Failed: failed}})
				continue
			}
			denom := opCount(perFlop, run.Stats.Procs)
			var pts []LineSizePoint
			for j, ls := range req.LineSizes {
				agg := sweep[j].Aggregate()
				refs := float64(max(agg.Refs(), 1))
				tr := sweep[j].Traffic
				pts = append(pts, LineSizePoint{
					App: name, LineSize: ls, PerFlop: perFlop,
					ColdPct:        100 * float64(agg.Misses[memsys.MissCold]) / refs,
					CapacityPct:    100 * float64(agg.Misses[memsys.MissCapacity]) / refs,
					TruePct:        100 * float64(agg.Misses[memsys.MissTrue]) / refs,
					FalsePct:       100 * float64(agg.Misses[memsys.MissFalse]) / refs,
					UpgradePct:     100 * float64(agg.Upgrades) / refs,
					RemoteData:     float64(tr.RemoteShared+tr.RemoteCold+tr.RemoteCapacity+tr.RemoteWriteback) / denom,
					RemoteOverhead: float64(tr.RemoteOverhead) / denom,
					LocalData:      float64(tr.LocalData) / denom,
				})
			}
			res.LineSize = append(res.LineSize, pts)
		}
		return nil
	}
}

// lineSizeSweepJob schedules one program's whole line-size sweep as a
// single fused replay (kind "lssweep"): the trace is decoded once, every
// line size's system fed per reference.
func lineSizeSweepJob(g *runner.Graph, rec runner.Job[*memsys.Trace], id traceIdent, req Request) runner.Job[[]memsys.Stats] {
	return runner.Submit(g, runner.Spec{
		Label: fmt.Sprintf("lssweep %s %dK 4-way ×%d line sizes", id.App, req.CacheSize/1024, len(req.LineSizes)),
		Key:   runner.KeyOf("lssweep", id, req.CacheSize, req.LineSizes),
		Deps:  []runner.Handle{rec},
	}, func(ctx context.Context) ([]memsys.Stats, error) {
		tr, err := rec.Result()
		if err != nil {
			return nil, err
		}
		cfgs := make([]memsys.Config, len(req.LineSizes))
		for i, ls := range req.LineSizes {
			cfgs[i] = memsys.Config{Procs: req.Procs, CacheSize: req.CacheSize, Assoc: 4, LineSize: ls}
		}
		return memsys.ReplayMulti(tr, cfgs)
	})
}

// RenderLineSizeMisses prints Figure 7 (miss decomposition vs line size).
func RenderLineSizeMisses(w io.Writer, groups [][]LineSizePoint) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Code\tLine\tCold%\tCap%\tTrue%\tFalse%\tUpgrades%\tTotal miss%")
	for _, pts := range groups {
		for _, l := range pts {
			if l.Failed != "" {
				fmt.Fprintf(tw, "%s\t%s\n", l.App, l.Failed)
				continue
			}
			fmt.Fprintf(tw, "%s\t%dB\t%.3f\t%.3f\t%.3f\t%.3f\t%.3f\t%.3f\n",
				l.App, l.LineSize, l.ColdPct, l.CapacityPct, l.TruePct, l.FalsePct, l.UpgradePct, l.TotalMissPct())
		}
	}
	tw.Flush()
}

// RenderLineSizeTraffic prints Figure 8 (traffic vs line size).
func RenderLineSizeTraffic(w io.Writer, groups [][]LineSizePoint) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Code\tLine\tUnit\tRemote data\tRemote ovhd\tLocal data\tTotal")
	for _, pts := range groups {
		for _, l := range pts {
			if l.Failed != "" {
				fmt.Fprintf(tw, "%s\t%s\n", l.App, l.Failed)
				continue
			}
			unit := "B/instr"
			if l.PerFlop {
				unit = "B/FLOP"
			}
			fmt.Fprintf(tw, "%s\t%dB\t%s\t%.4f\t%.4f\t%.4f\t%.4f\n",
				l.App, l.LineSize, unit, l.RemoteData, l.RemoteOverhead, l.LocalData,
				l.RemoteData+l.RemoteOverhead+l.LocalData)
		}
	}
	tw.Flush()
}
