package core

import "io"

// PruneAdvice automates the paper's §5 methodology for one program: given
// a measured miss-rate curve, identify the working-set knees, the
// representative operating points (one per flat region — "if the curve in
// a representative region is relatively flat ... a single operating point
// can be chosen from that region and the rest can be pruned"), and the
// redundant cache sizes that need not be simulated.
type PruneAdvice struct {
	App string
	// Knees are cache sizes at which a working set starts to fit (miss
	// rate drops sharply from the previous size).
	Knees []int
	// Representative holds one cache size per flat region of the curve.
	Representative []int
	// Redundant holds the pruned sizes (flat-region duplicates).
	Redundant []int
}

// kneeFraction: a drop counts as a knee when it exceeds this fraction of
// the curve's total range.
const kneeFraction = 0.15

// flatFraction: consecutive points within this fraction of the range are
// one flat region.
const flatFraction = 0.03

// Prune analyzes one miss curve.
func Prune(c MissCurve) PruneAdvice {
	adv := PruneAdvice{App: c.App}
	if len(c.MissRate) == 0 {
		return adv
	}
	lo, hi := c.MissRate[0], c.MissRate[0]
	for _, v := range c.MissRate {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	rng := hi - lo
	if rng == 0 {
		// Perfectly flat: one representative point suffices.
		adv.Representative = []int{c.CacheSizes[0]}
		adv.Redundant = append(adv.Redundant, c.CacheSizes[1:]...)
		return adv
	}

	// Knees: big drops between consecutive sizes.
	for i := 1; i < len(c.MissRate); i++ {
		if c.MissRate[i-1]-c.MissRate[i] > kneeFraction*rng {
			adv.Knees = append(adv.Knees, c.CacheSizes[i])
		}
	}

	// Flat regions: maximal runs of consecutive points whose values stay
	// within flatFraction of the range; keep the first point of each run.
	i := 0
	for i < len(c.MissRate) {
		j := i
		for j+1 < len(c.MissRate) && absf(c.MissRate[j+1]-c.MissRate[i]) <= flatFraction*rng {
			j++
		}
		adv.Representative = append(adv.Representative, c.CacheSizes[i])
		for k := i + 1; k <= j; k++ {
			adv.Redundant = append(adv.Redundant, c.CacheSizes[k])
		}
		i = j + 1
	}
	return adv
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// RenderPrune prints the advice table.
func RenderPrune(w io.Writer, advice []PruneAdvice) {
	r := newTable(w)
	r.str("Code\tKnees (working sets fit)\tSimulate\tPrune").end()
	for _, a := range advice {
		r.str(a.App)
		for _, sizes := range [...][]int{a.Knees, a.Representative, a.Redundant} {
			r.next()
			if len(sizes) == 0 {
				r.str("—")
			}
			for i, s := range sizes {
				if i > 0 {
					r.str(",")
				}
				if s >= 1024 {
					r.int(s / 1024).str("K")
				} else {
					r.int(s).str("B")
				}
			}
		}
		r.end()
	}
	r.flush()
}

// BandwidthMBs converts a traffic point into the paper's §6 bandwidth
// estimate: remote bytes per operation × issue rate (FLOPS or IPS),
// in MB/s per processor. The paper uses 200 MFLOPS / 200 MIPS.
func BandwidthMBs(t TrafficPoint, rateHz float64) float64 {
	return t.Remote() * rateHz / 1e6
}

// RenderBandwidth prints §6-style per-processor bandwidth needs.
func RenderBandwidth(w io.Writer, groups [][]TrafficPoint, rateHz float64) {
	r := newTable(w)
	r.str("Code\tP\tremote B/op\tMB/s per proc @").fixed(rateHz/1e6, 0).str("M ops/s").end()
	for _, pts := range groups {
		for _, t := range pts {
			r.str(t.App).next().int(t.Procs)
			if t.Failed != "" {
				r.cell(t.Failed).end()
				continue
			}
			r.next().fixed(t.Remote(), 4).next().fixed(BandwidthMBs(t, rateHz), 1).end()
		}
	}
	r.flush()
}
