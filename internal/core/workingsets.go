package core

import (
	"context"
	"fmt"
	"io"
	"text/tabwriter"

	"splash2/internal/memsys"
	"splash2/internal/runner"
)

// MissCurve is one program's miss rate versus cache size at one
// associativity (paper Figure 3). Knees in the curve are the program's
// working sets (§5).
type MissCurve struct {
	App        string
	Assoc      int // memsys.FullyAssoc for fully associative
	CacheSizes []int
	MissRate   []float64 // percent

	// Failed is the FAILED(...) placeholder for a lost sweep (keep-going);
	// MissRate is empty then.
	Failed string `json:"failed,omitempty"`
}

// DefaultCacheSizes are the paper's power-of-two sweep points, 1 KB–1 MB.
func DefaultCacheSizes() []int {
	var out []int
	for s := 1 << 10; s <= 1<<20; s <<= 1 {
		out = append(out, s)
	}
	return out
}

// workingSets sweeps cache size × associativity for each program with
// 64-byte lines on req.Procs processors (Figure 3). It submits one lazy
// record pick per program feeding a single fused sweep job, so a program
// whose grid is served from the result cache is never re-executed at
// all, and an uncached grid costs one pass over the trace per
// associativity instead of one replay per point. Every point sees the
// identical stream (§2.2's comparability argument).
func (b *batch) workingSets(req Request) fill {
	sweeps := make([]runner.Job[[][]float64], len(req.Apps))
	for i, name := range req.Apps {
		id := req.trace(name)
		sweeps[i] = workingSetSweepJob(b.g, b.recordJob(id), id, req.CacheSizes, req.Assocs)
	}
	return func(res *Results) error {
		for i, name := range req.Apps {
			grid, failed, err := degrade(b.e, sweeps[i])
			if err != nil {
				return err
			}
			for ai, assoc := range req.Assocs {
				c := MissCurve{App: name, Assoc: assoc, CacheSizes: req.CacheSizes, Failed: failed}
				if failed == "" {
					c.MissRate = grid[ai]
				}
				res.MissCurves = append(res.MissCurves, c)
			}
		}
		return nil
	}
}

// table2 derives Table 2 and the §5 pruning advice from Figure 3's 4-way
// curves; the other associativities enter neither. It submits nothing:
// it runs after Figure 3's fill.
func (b *batch) table2(req Request) fill {
	return func(res *Results) error {
		var fourWay []MissCurve
		for _, c := range res.MissCurves {
			if c.Assoc == 4 {
				fourWay = append(fourWay, c)
			}
		}
		res.Table2 = Table2(fourWay)
		for _, c := range fourWay {
			if c.Failed == "" {
				res.PruneAdvice = append(res.PruneAdvice, Prune(c))
			}
		}
		return nil
	}
}

// workingSetSweepJob schedules one program's whole Figure-3 grid as a
// single job (kind "wsweep"): every assoc × cache-size point is computed
// from the recorded trace, one pass per associativity answering all
// sizes at once — the inclusion pass for set-associative caches, the
// stack-distance pass for fully associative ones.
func workingSetSweepJob(g *runner.Graph, rec runner.Job[recordOut], id traceIdent, cacheSizes, assocs []int) runner.Job[[][]float64] {
	return runner.Submit(g, runner.Spec{
		Label: fmt.Sprintf("wsweep %s %d sizes × %d assocs", id.App, len(cacheSizes), len(assocs)),
		Key:   runner.KeyOf("wsweep", id, cacheSizes, assocs, 64),
		Deps:  []runner.Handle{rec},
	}, func(ctx context.Context) ([][]float64, error) {
		out, err := rec.Result()
		if err != nil {
			return nil, err
		}
		return workingSetMissRates(out.Trace, cacheSizes, assocs)
	})
}

// workingSetMissRates computes the assoc-major miss-rate grid of a
// Figure-3 sweep: grid[ai][ci] is the percentage miss rate with 64-byte
// lines at assocs[ai], cacheSizes[ci] — bit-identical, point by point,
// to replaying each configuration separately. Each associativity costs
// one pass over the stream that answers every size at once: the
// inclusion pass (memsys.SetAssocSweep) for set-associative caches, the
// stack-distance pass for fully associative ones. The stream may be in
// memory or an out-of-core TraceFile; both passes consume it block by
// block.
func workingSetMissRates(tr memsys.TraceSource, cacheSizes, assocs []int) ([][]float64, error) {
	rates := make(map[int]func(cacheSize int) (float64, error), len(assocs))
	grid := make([][]float64, len(assocs))
	for ai, assoc := range assocs {
		rate, ok := rates[assoc]
		if !ok {
			if assoc == memsys.FullyAssoc {
				maxSize := 0
				for _, cs := range cacheSizes {
					maxSize = max(maxSize, cs)
				}
				sp, err := memsys.StackDistances(tr, 64, maxSize)
				if err != nil {
					return nil, err
				}
				rate = sp.MissRate
			} else {
				sp, err := memsys.SetAssocSweep(tr, 64, assoc, cacheSizes)
				if err != nil {
					return nil, err
				}
				rate = sp.MissRate
			}
			rates[assoc] = rate
		}
		grid[ai] = make([]float64, len(cacheSizes))
		for ci, cs := range cacheSizes {
			mr, err := rate(cs)
			if err != nil {
				return nil, err
			}
			grid[ai][ci] = 100 * mr
		}
	}
	return grid, nil
}

// assocLabel names an associativity.
func assocLabel(a int) string {
	if a == memsys.FullyAssoc {
		return "full"
	}
	return fmt.Sprintf("%d-way", a)
}

// RenderMissCurves prints Figure 3 as one row per (app, assoc).
func RenderMissCurves(w io.Writer, curves []MissCurve) {
	if len(curves) == 0 {
		return
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, "Code\tAssoc")
	for _, cs := range curves[0].CacheSizes {
		fmt.Fprintf(tw, "\t%dK", cs/1024)
	}
	fmt.Fprintln(tw)
	for _, c := range curves {
		fmt.Fprintf(tw, "%s\t%s", c.App, assocLabel(c.Assoc))
		if c.Failed != "" {
			fmt.Fprintf(tw, "\t%s\n", c.Failed)
			continue
		}
		for _, mr := range c.MissRate {
			fmt.Fprintf(tw, "\t%.2f%%", mr)
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
}

// Knee locates the most important working set in a miss curve: the cache
// size with the largest relative miss-rate drop from the previous size.
func (c MissCurve) Knee() (cacheSize int, drop float64) {
	for i := 1; i < len(c.MissRate); i++ {
		d := c.MissRate[i-1] - c.MissRate[i]
		if d > drop {
			drop = d
			cacheSize = c.CacheSizes[i]
		}
	}
	return cacheSize, drop
}

// Table2Row reproduces the paper's Table 2 for one program: the important
// working sets, their analytic growth rates (from the paper's analysis,
// §5), and whether each fits in cache — annotated with the measured knee
// from this run's Figure-3 sweep.
type Table2Row struct {
	App          string
	WS1          string // constitution of the first working set
	WS1Growth    string
	WS1Fits      string
	WS2          string
	WS2Growth    string
	WS2Fits      string
	MeasuredKnee int // bytes, from the measured 4-way curve
}

// table2Static is the paper's qualitative content of Table 2.
var table2Static = map[string][6]string{
	"barnes":    {"tree data for body", "log DS", "yes", "partition of DS", "DS/P", "maybe"},
	"cholesky":  {"one block", "fixed", "yes", "partition of DS", "DS/P", "maybe"},
	"fft":       {"one row of matrix", "√DS", "yes", "partition of DS", "DS/P", "maybe"},
	"fmm":       {"expansion terms", "fixed", "yes", "partition of DS", "DS/P", "maybe"},
	"lu":        {"one block", "fixed", "yes", "partition of DS", "DS/P", "maybe"},
	"ocean":     {"a few subrows", "√(DS/P)", "yes", "partition of DS", "DS/P", "maybe"},
	"radiosity": {"BSP tree", "log(polygons)", "yes", "unstructured", "unstructured", "maybe"},
	"radix":     {"histogram", "radix r", "yes", "partition of DS", "DS/P", "maybe"},
	"raytrace":  {"unstructured", "unstructured", "yes", "unstructured", "unstructured", "maybe"},
	"volrend":   {"octree, part of ray", "K·log DS", "yes", "partition of DS", "≈DS/P", "maybe"},
	"water-nsq": {"private data", "fixed", "yes", "partition of DS", "DS", "maybe"},
	"water-sp":  {"private data", "fixed", "yes", "partition of DS", "DS/P", "maybe"},
}

// Table2 combines the static analysis with the measured knees of the
// provided 4-way curves (one per program). Curves lost to failures
// (keep-going mode) carry no knee and are omitted.
func Table2(curves []MissCurve) []Table2Row {
	var out []Table2Row
	for _, c := range curves {
		if c.Failed != "" {
			continue
		}
		s, ok := table2Static[c.App]
		if !ok {
			continue
		}
		knee, _ := c.Knee()
		out = append(out, Table2Row{
			App: c.App,
			WS1: s[0], WS1Growth: s[1], WS1Fits: s[2],
			WS2: s[3], WS2Growth: s[4], WS2Fits: s[5],
			MeasuredKnee: knee,
		})
	}
	return out
}

// RenderTable2 prints Table 2.
func RenderTable2(w io.Writer, rows []Table2Row) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Code\tWorking Set 1\tGrowth\tFits?\tWorking Set 2\tGrowth\tFits?\tMeasured knee")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\t%s\t%dK\n",
			r.App, r.WS1, r.WS1Growth, r.WS1Fits, r.WS2, r.WS2Growth, r.WS2Fits, r.MeasuredKnee/1024)
	}
	tw.Flush()
}
