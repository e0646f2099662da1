package core

import (
	"context"
	"fmt"
	"io"
	"math"
	"text/tabwriter"

	"splash2/internal/memsys"
	"splash2/internal/runner"
)

// SampledCurve is one program's SHARDS-estimated miss-rate curve at full
// associativity: the sampled twin of a fully-associative MissCurve row,
// with a confidence band around every point. The estimator replays a
// spatially-hashed subset of the trace (see memsys.SampledStackDistances),
// so a curve costs a fraction of the exact stack-distance pass while the
// band quantifies what that fraction gave up.
type SampledCurve struct {
	App        string
	CacheSizes []int
	MissRate   []float64 // percent, estimated
	BandLo     []float64 // percent, lower 95% band
	BandHi     []float64 // percent, upper 95% band

	// Rate and SampleSeed identify the sampling configuration; EffRate is
	// the rate the hash threshold realizes (Rate rounded down to a
	// multiple of 2⁻⁶⁴; kept as a column of the export format).
	Rate       float64
	EffRate    float64
	SampleSeed uint64
	// ExactLines is the exact-window width (lines): capacities at or
	// below ExactLines × 64 B are answered exactly, with zero-width
	// bands.
	ExactLines int

	// Failed is the FAILED(...) placeholder for a lost sweep (keep-going);
	// the data slices are empty then.
	Failed string `json:"failed,omitempty"`
}

// sampledSweep is the cacheable result of one program's sampled sweep.
type sampledSweep struct {
	Miss    []float64 // percent per cache size
	Lo, Hi  []float64 // percent per cache size
	EffRate float64
}

// sampledSets estimates each program's fully-associative working-set
// curve by sampled reuse-distance analysis with 64-byte lines on
// req.Procs processors. It mirrors workingSets: one lazy record pick per
// program feeds a sampled sweep job, so a program whose estimate is
// served from the result cache is never re-executed, and an uncached
// estimate costs one sampled pass over the trace — a small fraction of
// the exact pass's work at low rates.
func (b *batch) sampledSets(req Request) fill {
	rate, seed := req.SampleRate, req.SampleSeed
	if rate <= 0 || rate > 1 {
		return func(*Results) error { return fmt.Errorf("core: sample rate %v out of range (0, 1]", rate) }
	}
	sweeps := make([]runner.Job[sampledSweep], len(req.Apps))
	for i, name := range req.Apps {
		id := req.trace(name)
		sweeps[i] = b.e.sampledSweepJob(b.g, b.recordJob(id), id, req.CacheSizes, rate, seed)
	}
	return func(res *Results) error {
		for i, name := range req.Apps {
			sw, failed, err := degrade(b.e, sweeps[i])
			if err != nil {
				return err
			}
			c := SampledCurve{
				App: name, CacheSizes: req.CacheSizes,
				Rate: rate, SampleSeed: seed, ExactLines: memsys.DefaultExactLines,
				Failed: failed,
			}
			if failed == "" {
				c.MissRate, c.BandLo, c.BandHi = sw.Miss, sw.Lo, sw.Hi
				c.EffRate = sw.EffRate
			}
			res.Sampled = append(res.Sampled, c)
		}
		return nil
	}
}

// sampledSweepJob schedules one program's sampled working-set estimate
// as a single job (kind "wsweep-sampled"): every fully-associative cache
// size is answered by one sampled stack-distance pass. The key folds in
// the sampling rate, seed and exact-window width — estimates at
// different rates are different results and must not collide in the
// cache.
func (e *Engine) sampledSweepJob(g *runner.Graph, rec runner.Job[recordOut], id traceIdent, cacheSizes []int, rate float64, seed uint64) runner.Job[sampledSweep] {
	return runner.Submit(g, runner.Spec{
		Label: fmt.Sprintf("wsweep-sampled %s %d sizes @ %g", id.App, len(cacheSizes), rate),
		Key:   runner.KeyOf("wsweep-sampled", id, cacheSizes, 64, math.Float64bits(rate), seed, memsys.DefaultExactLines),
		Deps:  []runner.Handle{rec},
	}, func(ctx context.Context) (sampledSweep, error) {
		var sw sampledSweep
		if err := e.fault.Do(ctx, "sample.estimate:"+id.App); err != nil {
			return sw, err
		}
		out, err := rec.Result()
		if err != nil {
			return sw, err
		}
		maxSize := 0
		for _, cs := range cacheSizes {
			if cs > maxSize {
				maxSize = cs
			}
		}
		sp, err := memsys.SampledStackDistances(out.Trace, 64, maxSize, memsys.SampledOptions{
			Rate: rate, Seed: seed, ExactLines: memsys.DefaultExactLines,
		})
		if err != nil {
			return sw, err
		}
		for _, cs := range cacheSizes {
			mr, err := sp.EstMissRate(cs)
			if err != nil {
				return sw, err
			}
			lo, hi, err := sp.Band(cs)
			if err != nil {
				return sw, err
			}
			sw.Miss = append(sw.Miss, 100*mr)
			sw.Lo = append(sw.Lo, 100*lo)
			sw.Hi = append(sw.Hi, 100*hi)
		}
		sw.EffRate = sp.Rate()
		return sw, nil
	})
}

// RenderSampledCurves prints the estimated curves, one row per program,
// each cell an estimate with its 95% band.
func RenderSampledCurves(w io.Writer, curves []SampledCurve) {
	if len(curves) == 0 {
		return
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, "Code\tRate")
	for _, cs := range curves[0].CacheSizes {
		fmt.Fprintf(tw, "\t%dK", cs/1024)
	}
	fmt.Fprintln(tw)
	for _, c := range curves {
		fmt.Fprintf(tw, "%s\t%g", c.App, c.Rate)
		if c.Failed != "" {
			fmt.Fprintf(tw, "\t%s\n", c.Failed)
			continue
		}
		for i, mr := range c.MissRate {
			if c.BandLo[i] == c.BandHi[i] {
				fmt.Fprintf(tw, "\t%.2f%%", mr)
			} else {
				fmt.Fprintf(tw, "\t%.2f±%.2f%%", mr, (c.BandHi[i]-c.BandLo[i])/2)
			}
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
}
