package main

import (
	"math"
	"sort"
)

// summary condenses one metric's samples. The gated value is the median;
// the quartiles and n state how much to trust it (Touati et al.: a timing
// without its spread is not a result).
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
	// TailPct is the highest percentile with at least ten samples beyond
	// it, and Tail its value; both are 0 when n is too small to have one.
	TailPct float64 `json:"tail_pct,omitempty"`
	Tail    float64 `json:"tail,omitempty"`
}

func summarize(values []float64) summary {
	if len(values) == 0 {
		return summary{}
	}
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	s := summary{Median: quantile(v, 2), Q1: quantile(v, 1), Q3: quantile(v, 3), N: len(v)}
	if k := len(v) - 10; k > len(v)/2 {
		s.TailPct = 100 * float64(k) / float64(len(v))
		s.Tail = v[k-1]
	}
	return s
}

// quantile returns the i-th quartile cut of sorted data exactly as
// Python's statistics.quantiles(data, n=4) does (the "exclusive" method),
// because the acceptance rule for this benchmark is stated in those terms.
func quantile(sorted []float64, i int) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	m := n + 1
	j := i * m / 4
	if j < 1 {
		j = 1
	}
	if j > n-1 {
		j = n - 1
	}
	delta := float64(i*m - j*4)
	return (sorted[j-1]*(4-delta) + sorted[j]*delta) / 4
}

func median(values []float64) float64 { return summarize(values).Median }

// spread is the interquartile distance as a share of the median: the
// number the acceptance rule compares with a metric's bound.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return math.Inf(1)
	}
	return (s.Q3 - s.Q1) / s.Median
}

// percentile returns the p-th percentile (0 < p < 100) of sorted data by
// nearest rank.
func percentile(sorted []float64, p float64) float64 {
	k := int(math.Ceil(p / 100 * float64(len(sorted))))
	if k < 1 {
		k = 1
	}
	return sorted[k-1]
}
