package main

import (
	"math"
	"math/rand/v2"
	"testing"
)

// drawPairs draws n pairs the way runs on a shared host look: each pair shares
// a drift factor (the host changing speed between pairs), and each run
// has its own noise whose interquartile spread, relative to the median,
// is spread. The head side is shift times the base side.
func drawPairs(rng *rand.Rand, n int, spread, shift float64) (base, head []float64) {
	sigma := spread / 1.349 // a normal's IQR is 1.349 σ
	for i := 0; i < n; i++ {
		drift := math.Exp(0.2 * rng.NormFloat64())
		base = append(base, drift*math.Exp(sigma*rng.NormFloat64()))
		head = append(head, shift*drift*math.Exp(sigma*rng.NormFloat64()))
	}
	return base, head
}

// verdictRates draws 1 000 comparisons of n pairs at spreads spread
// uniformly over 4–9 % and returns the share of each call.
func verdictRates(seed uint64, n int, shift float64) map[string]float64 {
	rng := rand.New(rand.NewPCG(seed, 1))
	calls := map[string]float64{}
	const draws = 1000
	for d := 0; d < draws; d++ {
		base, head := drawPairs(rng, n, 0.04+0.05*rng.Float64(), shift)
		calls[compare(base, head, true, rng).Call] += 1.0 / draws
	}
	return calls
}

func TestIdenticalDistributionsAreNotSignificant(t *testing.T) {
	rates := verdictRates(1, pairs, 1)
	if ns := rates["not significant"]; ns < 0.93 || ns > 0.995 {
		t.Errorf("identical distributions read not significant in %.1f%% of draws, want about 95%% (%v)", 100*ns, rates)
	}
}

func TestTenPercentShiftIsDetected(t *testing.T) {
	if r := verdictRates(2, pairs, 1.10)["slower"]; r < 0.90 {
		t.Errorf("a 10%% slowdown read slower in %.1f%% of draws, want at least 90%%", 100*r)
	}
	if r := verdictRates(3, pairs, 1/1.10)["faster"]; r < 0.90 {
		t.Errorf("a 10%% speed-up read faster in %.1f%% of draws, want at least 90%%", 100*r)
	}
}

// TestSignedRankExact checks the exact null distribution against values
// tabulated for the Wilcoxon signed-rank statistic.
func TestSignedRankExact(t *testing.T) {
	for _, c := range []struct {
		d    []float64
		want float64
	}{
		// n = 5, all positive: P(W+ = 15) = 1/32, two-sided 2/32.
		{[]float64{1, 2, 3, 4, 5}, 2.0 / 32},
		// n = 10, W- = 8: the two-sided 0.05 critical value; P(W ≤ 8) = 25/1024.
		{[]float64{-1, 2, 3, -7, 5, 6, 4, 8, 9, 10}, 2 * 25.0 / 1024},
		// Zeros drop out and ties share a mean rank (1.5, 1.5, 3), so
		// W- = 1.5; of the 8 sign patterns 3 have W ≤ 1.5 (0, 1.5, 1.5).
		{[]float64{0, 1, -1, 2}, 2 * 3.0 / 8},
		{[]float64{0, 0}, 1},
	} {
		if got := signedRankP(c.d); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("signedRankP(%v) = %g, want %g", c.d, got, c.want)
		}
	}
}

func TestCompareCallsDirection(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 4))
	base := []float64{1, 1.1, 0.9, 1.05, 0.95, 1, 1.02, 0.98, 1.01, 0.99}
	head := make([]float64, len(base))
	for i, b := range base {
		head[i] = 0.6 * b
	}
	if v := compare(base, head, true, rng); v.Call != "faster" || v.HeadWins != 10 || math.Abs(v.Ratio-0.6) > 1e-9 {
		t.Errorf("lower-is-better, head 0.6×: %+v", v)
	}
	if v := compare(base, head, false, rng); v.Call != "slower" || v.HeadWins != 0 {
		t.Errorf("higher-is-better, head 0.6×: %+v", v)
	}
}

// TestQuartilesMatchBench pins the quartile cuts to the exclusive method
// bench/stats.go reports (Python's statistics.quantiles(x, n=4)).
func TestQuartilesMatchBench(t *testing.T) {
	for _, c := range []struct {
		x          []float64
		q1, q2, q3 float64
	}{
		{[]float64{7}, 7, 7, 7},
		{[]float64{4, 1, 3, 2}, 1.25, 2.5, 3.75},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
	} {
		if q1, q2, q3 := quartiles(c.x); q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %g, %g, %g, want %g, %g, %g", c.x, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}
