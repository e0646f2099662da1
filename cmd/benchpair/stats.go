package main

import (
	"cmp"
	"math"
	"math/rand/v2"
	"slices"
)

// alpha is the verdict's significance level: a difference is called only
// when the Wilcoxon test rejects "no shift" at this level and the
// bootstrap interval of the median ratio excludes 1.
const alpha = 0.05

// bootstrapResamples is the number of resampled pair sets behind the
// median ratio's interval.
const bootstrapResamples = 2000

// pairs is the number of interleaved pairs per workload: over 4–9 %
// run-to-run spreads a 10 % shift is called in about 94 % of comparisons
// at 12 pairs and in about 91 % at 10.
const pairs = 12

// verdict is the comparison of one metric over n interleaved pairs.
type verdict struct {
	N                int     // pairs
	BaseMed, HeadMed float64 // each side's median
	BaseQ1, BaseQ3   float64 // the base side's quartiles, as bench computes them
	Ratio            float64 // median of head/base over the pairs
	CILo, CIHi       float64 // bootstrap 95 % interval of Ratio
	P                float64 // Wilcoxon signed-rank, two-sided
	HeadWins         int     // pairs where head was better
	Call             string  // "faster", "slower" or "not significant"
}

// compare judges paired samples of a positive metric whose smaller values
// are better when lowerBetter is set. Pair i is (base[i], head[i]); the
// bootstrap draws from rng, so a fixed seed gives a fixed interval.
func compare(base, head []float64, lowerBetter bool, rng *rand.Rand) verdict {
	n := len(base)
	v := verdict{N: n, P: 1, Call: "not significant"}
	if n == 0 {
		return v
	}
	v.BaseQ1, v.BaseMed, v.BaseQ3 = quartiles(base)
	_, v.HeadMed, _ = quartiles(head)
	ratios := make([]float64, n)
	logs := make([]float64, n)
	for i := range base {
		ratios[i] = head[i] / base[i]
		logs[i] = math.Log(ratios[i])
		if logs[i] != 0 && (logs[i] < 0) == lowerBetter {
			v.HeadWins++
		}
	}
	_, v.Ratio, _ = quartiles(ratios)
	v.CILo, v.CIHi = bootstrapMedian(ratios, rng)
	v.P = signedRankP(logs)
	if v.P < alpha && (v.CIHi < 1 || v.CILo > 1) {
		if (v.Ratio < 1) == lowerBetter {
			v.Call = "faster"
		} else {
			v.Call = "slower"
		}
	}
	return v
}

// quartiles returns the three quartile cuts of x, which it leaves
// unchanged, by the method bench/stats.go uses: Python's
// statistics.quantiles(x, n=4), the "exclusive" one.
func quartiles(x []float64) (q1, q2, q3 float64) {
	s := slices.Clone(x)
	slices.Sort(s)
	cut := func(i int) float64 {
		if len(s) == 1 {
			return s[0]
		}
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// bootstrapMedian returns the 2.5th and 97.5th percentiles of the median
// of x over resamples of x with replacement.
func bootstrapMedian(x []float64, rng *rand.Rand) (lo, hi float64) {
	meds := make([]float64, bootstrapResamples)
	s := make([]float64, len(x))
	for b := range meds {
		for i := range s {
			s[i] = x[rng.IntN(len(x))]
		}
		_, meds[b], _ = quartiles(s)
	}
	slices.Sort(meds)
	return meds[bootstrapResamples*25/1000], meds[bootstrapResamples*975/1000-1]
}

// signedRankP is the exact two-sided p-value of the Wilcoxon signed-rank
// test that the differences d are symmetric about zero. Zero differences
// are dropped and tied magnitudes share their mean rank; ranks are
// doubled so that mean ranks stay integers, and the null distribution of
// the positive rank sum is counted over all 2^n sign patterns, which
// costs O(n³) time.
func signedRankP(d []float64) float64 {
	var nz []float64
	for _, x := range d {
		if x != 0 {
			nz = append(nz, x)
		}
	}
	n := len(nz)
	if n == 0 {
		return 1
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	slices.SortFunc(idx, func(a, b int) int { return cmp.Compare(math.Abs(nz[a]), math.Abs(nz[b])) })
	rank2 := make([]int, n) // twice each difference's rank
	for i := 0; i < n; {
		j := i
		for j < n && math.Abs(nz[idx[j]]) == math.Abs(nz[idx[i]]) {
			j++
		}
		for k := i; k < j; k++ {
			rank2[idx[k]] = i + j + 1 // 2 × the mean of ranks i+1 … j
		}
		i = j
	}
	total, wPlus := 0, 0
	for i, r := range rank2 {
		total += r
		if nz[i] > 0 {
			wPlus += r
		}
	}
	// dist[s] is the probability that the positive rank sum is s when
	// every sign is a fair coin.
	dist := make([]float64, total+1)
	dist[0] = 1
	for _, r := range rank2 {
		for s := total; s >= 0; s-- {
			dist[s] /= 2
			if s >= r {
				dist[s] += dist[s-r] / 2
			}
		}
	}
	w := min(wPlus, total-wPlus)
	p := 0.0
	for s := 0; s <= w; s++ {
		p += dist[s]
	}
	return min(1, 2*p)
}
