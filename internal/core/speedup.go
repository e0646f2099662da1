package core

import (
	"io"

	"splash2/internal/runner"
)

// SpeedupCurve is one program's PRAM speedup over processor counts
// (paper Figure 1): T(1)/T(p) under a perfect memory system, so deviations
// from ideal measure load imbalance, serialization and redundant work.
type SpeedupCurve struct {
	App     string
	Procs   []int
	Speedup []float64
	Time    []uint64

	// Failed marks the whole curve lost in a keep-going run. A partial
	// curve would be misleading (every point is normalized to the
	// baseline), so one lost point fails the curve.
	Failed string `json:"failed,omitempty"`
}

// speedups submits the program × processor-count grid of count-only
// picks; curves are assembled in req.ProcList order once the graph
// completes.
func (b *batch) speedups(req Request) fill {
	jobs := make([][]runner.Job[*RunResult], len(req.ProcList))
	for pi, p := range req.ProcList {
		jobs[pi] = b.countRuns(req, p)
	}
	return func(res *Results) error {
		for ai, name := range req.Apps {
			curve := SpeedupCurve{App: name, Procs: req.ProcList}
			var t1 float64
			for i, p := range req.ProcList {
				run, failed, err := degrade(b, jobs[i][ai])
				if err != nil {
					return err
				}
				if failed != "" {
					curve = SpeedupCurve{App: name, Procs: req.ProcList, Failed: failed}
					break
				}
				t := run.Stats.Time
				curve.Time = append(curve.Time, t)
				if i == 0 {
					// Baseline: the first point (normally p=1); if the sweep
					// starts above 1, assume ideal scaling up to it.
					t1 = float64(t) * float64(p)
				}
				curve.Speedup = append(curve.Speedup, t1/float64(t))
			}
			res.Speedups = append(res.Speedups, curve)
		}
		return nil
	}
}

// RenderSpeedups prints the curves as a table, one column per proc count.
func RenderSpeedups(w io.Writer, curves []SpeedupCurve) {
	if len(curves) == 0 {
		return
	}
	r := newTable(w)
	r.str("Code")
	for _, p := range curves[0].Procs {
		r.cell("P=").int(p)
	}
	r.end()
	for _, c := range curves {
		r.str(c.App)
		if c.Failed != "" {
			r.cell(c.Failed).end()
			continue
		}
		for _, s := range c.Speedup {
			r.next().fixed(s, 2)
		}
		r.end()
	}
	r.flush()
}

// SyncProfile is one program's synchronization time distribution at a
// fixed processor count (paper Figure 2): the minimum, average and maximum
// fraction of execution time spent at synchronization points (locks,
// barriers and pauses) over all processors.
type SyncProfile struct {
	App           string
	MinPct        float64
	AvgPct        float64
	MaxPct        float64
	BarriersTotal uint64
	LocksTotal    uint64
	PausesTotal   uint64

	// Failed is the FAILED(...) placeholder for a lost run (keep-going).
	Failed string `json:"failed,omitempty"`
}

// syncProfiles takes one count-only pick per program, the same jobs as
// Table 1's.
func (b *batch) syncProfiles(req Request) fill {
	jobs := b.countRuns(req, req.Procs)
	return func(res *Results) error {
		for i, name := range req.Apps {
			run, failed, err := degrade(b, jobs[i])
			if err != nil {
				return err
			}
			if failed != "" {
				res.Sync = append(res.Sync, SyncProfile{App: name, Failed: failed})
				continue
			}
			t := float64(run.Stats.Time)
			pr := SyncProfile{App: name, MinPct: 101}
			var sum float64
			for _, c := range run.Stats.Procs {
				pct := 0.0
				if t > 0 {
					pct = 100 * float64(c.SyncWait) / t
				}
				sum += pct
				if pct < pr.MinPct {
					pr.MinPct = pct
				}
				if pct > pr.MaxPct {
					pr.MaxPct = pct
				}
				pr.BarriersTotal += c.Barriers
				pr.LocksTotal += c.Locks
				pr.PausesTotal += c.Pauses
			}
			pr.AvgPct = sum / float64(len(run.Stats.Procs))
			res.Sync = append(res.Sync, pr)
		}
		return nil
	}
}

// RenderSyncProfiles prints the Figure-2 table.
func RenderSyncProfiles(w io.Writer, profiles []SyncProfile) {
	r := newTable(w)
	r.str("Code\tMin %\tAvg %\tMax %\tBarriers\tLocks\tPauses").end()
	for _, p := range profiles {
		r.str(p.App)
		if p.Failed != "" {
			r.cell(p.Failed).end()
			continue
		}
		r.next().fixed(p.MinPct, 1).next().fixed(p.AvgPct, 1).next().fixed(p.MaxPct, 1)
		r.next().uint(p.BarriersTotal).next().uint(p.LocksTotal).next().uint(p.PausesTotal).end()
	}
	r.flush()
}
