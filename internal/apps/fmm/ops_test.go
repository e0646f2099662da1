package fmm

import (
	"fmt"
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"

	"splash2/internal/workload"
)

const terms = 16

// directPhiField sums Φ(z) = Σ q·log(z−z_i) and Φ'(z) directly.
func directPhiField(q []float64, zs []complex128, z complex128) (phi, field complex128) {
	for i := range q {
		phi += complex(q[i], 0) * cmplx.Log(z-zs[i])
		field += complex(q[i], 0) / (z - zs[i])
	}
	return
}

// cluster builds a random charge cluster inside the disc |z−zc| < r.
func cluster(rng *workload.RNG, zc complex128, r float64, n int) ([]float64, []complex128) {
	q := make([]float64, n)
	zs := make([]complex128, n)
	for i := range q {
		q[i] = rng.Range(0.1, 1)
		rr := r * math.Sqrt(rng.Float64())
		th := rng.Range(0, 2*math.Pi)
		zs[i] = zc + cmplx.Rect(rr, th)
	}
	return q, zs
}

func relErr(got, want complex128) float64 {
	if cmplx.Abs(want) == 0 {
		return cmplx.Abs(got)
	}
	return cmplx.Abs(got-want) / cmplx.Abs(want)
}

func TestBinomial(t *testing.T) {
	cases := [][3]int{{0, 0, 1}, {5, 2, 10}, {10, 0, 1}, {10, 10, 1}, {6, 3, 20}}
	for _, c := range cases {
		if got := binomial(c[0], c[1]); got != float64(c[2]) {
			t.Errorf("C(%d,%d) = %v, want %d", c[0], c[1], got, c[2])
		}
	}
	if binomial(3, 5) != 0 || binomial(3, -1) != 0 {
		t.Error("out-of-range binomial not zero")
	}
}

// p2mWithinBound forms the multipole expansion of one random cluster
// of radius r = 0.5 and evaluates it at five points a distance R in
// [1.5, 3) from the centre. Each trial must agree with the direct sum to
// within the truncation bound of a terms-long expansion: with ρ = r/R
// and Q the total charge, the dropped terms contribute at most
// Q/(terms+1)·ρ^(terms+1)/(1−ρ) to the potential and Q/R·ρ^(terms+1)/(1−ρ)
// to the field, whose magnitude is at least Q·√(1−ρ²)/(R+r) (every
// charge pulls within asin ρ of the same direction). A 1e-12 floor
// covers rounding where the bound falls below it.
func p2mWithinBound(seed uint64) error {
	const r = 0.5
	rng := workload.NewRNG(seed)
	zc := complex(rng.Range(-1, 1), rng.Range(-1, 1))
	q, zs := cluster(rng, zc, r, 20)
	var total float64
	for _, qi := range q {
		total += qi
	}
	a := p2m(q, zs, zc, terms)
	for trial := 0; trial < 5; trial++ {
		z := zc + cmplx.Rect(rng.Range(1.5, 3), rng.Range(0, 2*math.Pi))
		rho := r / cmplx.Abs(z-zc)
		trunc := math.Pow(rho, terms+1) / (1 - rho)
		wantP, wantF := directPhiField(q, zs, z)
		gotP, gotF := evalMultipole(a, z-zc)
		if e, tol := relErr(gotF, wantF), math.Sqrt((1+rho)/(1-rho))*trunc+1e-12; e > tol {
			return fmt.Errorf("trial %d at |z−zc| = %.4f: field relative error %.3g exceeds %.3g", trial, r/rho, e, tol)
		}
		if e, tol := math.Abs(real(gotP-wantP)), total/(terms+1)*trunc+1e-12*(1+math.Abs(real(wantP))); e > tol {
			return fmt.Errorf("trial %d at |z−zc| = %.4f: potential error %.3g exceeds %.3g", trial, r/rho, e, tol)
		}
	}
	return nil
}

// Property: a multipole expansion reproduces potential and field outside
// the cluster to within its truncation bound. The fixed seeds put an
// evaluation point close enough to the cluster for the truncation error
// to exceed 1e-9.
func TestP2MAccuracy(t *testing.T) {
	for _, seed := range []uint64{0xc6bb0711987be2a3, 0xbba2f2417fb5e63e} {
		if err := p2mWithinBound(seed); err != nil {
			t.Errorf("seed %#x: %v", seed, err)
		}
	}
	f := func(seed uint64) bool { return p2mWithinBound(seed) == nil }
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: M2M-shifted expansions agree with directly formed ones.
func TestM2MAccuracy(t *testing.T) {
	f := func(seed uint64) bool {
		rng := workload.NewRNG(seed)
		z0 := complex(0.3, -0.2)
		q, zs := cluster(rng, z0, 0.3, 15)
		a := p2m(q, zs, z0, terms)
		z1 := z0 + complex(0.25, -0.15) // new, coarser center
		b := m2m(a, z0-z1)
		for trial := 0; trial < 5; trial++ {
			z := z1 + cmplx.Rect(rng.Range(2, 4), rng.Range(0, 2*math.Pi))
			_, wantF := directPhiField(q, zs, z)
			_, gotF := evalMultipole(b, z-z1)
			if relErr(gotF, wantF) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: M2L local expansions reproduce the far cluster's potential
// inside the target disc, to truncation accuracy.
func TestM2LAccuracy(t *testing.T) {
	f := func(seed uint64) bool {
		rng := workload.NewRNG(seed)
		zsrc := complex(2.0, 1.0)
		q, zs := cluster(rng, zsrc, 0.4, 15)
		a := p2m(q, zs, zsrc, terms)
		ztgt := complex(-1.0, -0.5) // distance ≈ 3.35, radii 0.4
		b := m2l(a, zsrc-ztgt)
		for trial := 0; trial < 5; trial++ {
			z := ztgt + cmplx.Rect(rng.Range(0, 0.4), rng.Range(0, 2*math.Pi))
			wantP, wantF := directPhiField(q, zs, z)
			gotP, gotF := evalLocal(b, z-ztgt)
			if relErr(gotF, wantF) > 1e-6 {
				return false
			}
			// Potentials agree up to the (real) branch constant? No: the
			// real part is single-valued; compare directly.
			if math.Abs(real(gotP)-real(wantP)) > 1e-6*(1+math.Abs(real(wantP))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: L2L re-centering preserves values inside the sub-disc.
func TestL2LAccuracy(t *testing.T) {
	f := func(seed uint64) bool {
		rng := workload.NewRNG(seed)
		zsrc := complex(2.5, 0)
		q, zs := cluster(rng, zsrc, 0.3, 10)
		a := p2m(q, zs, zsrc, terms)
		z0 := complex(-0.8, 0.1)
		loc := m2l(a, zsrc-z0)
		z1 := z0 + complex(0.1, -0.08)
		shifted := l2l(loc, z1-z0)
		for trial := 0; trial < 5; trial++ {
			z := z1 + cmplx.Rect(rng.Range(0, 0.1), rng.Range(0, 2*math.Pi))
			want, wantF := evalLocal(loc, z-z0)
			got, gotF := evalLocal(shifted, z-z1)
			if cmplx.Abs(got-want) > 1e-9*(1+cmplx.Abs(want)) || relErr(gotF, wantF) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
