package core

import (
	"context"
	"math"
	"os"
	"strconv"
	"testing"

	"splash2/internal/memsys"

	_ "splash2/internal/apps/all"
)

// validationSeeds returns the hash seeds the envelope harness drills:
// 1–3 by default, or the single seed named by SAMPLED_SEED (the CI
// sampling-validation matrix runs one job per seed).
func validationSeeds(t *testing.T) []uint64 {
	v := os.Getenv("SAMPLED_SEED")
	if v == "" {
		return []uint64{1, 2, 3}
	}
	s, err := strconv.ParseUint(v, 10, 64)
	if err != nil || s == 0 {
		t.Fatalf("bad SAMPLED_SEED %q", v)
	}
	return []uint64{s}
}

// TestSampledErrorEnvelopeSuite is the validation harness for the
// sampled reuse-distance estimator: over the full recorded suite, at the
// production sampling rate (1%), the estimated fully-associative miss
// ratio must stay within 0.02 absolute of the exact Mattson pass at
// every default cache size, for several seeds. Each program is recorded
// once and both passes consume the identical trace, so the property is
// about estimation error alone, not run-to-run reference variation.
//
// This is the acceptance bound BENCH_sampling.json reports against; the
// synthetic-trace unit tests in internal/memsys cover the bit-identity
// and determinism properties, this test covers accuracy on the real
// workloads.
func TestSampledErrorEnvelopeSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("records and profiles the full suite")
	}
	const (
		rate     = 0.01
		procs    = 8
		maxAbsMR = 0.02
	)
	sizes := DefaultCacheSizes()
	seeds := validationSeeds(t)
	for _, app := range Suite {
		app := app
		t.Run(app, func(t *testing.T) {
			t.Parallel()
			tr, _, err := RecordApp(app, procs, DefaultScale.Overrides(app))
			if err != nil {
				t.Fatal(err)
			}
			exact, err := memsys.StackDistances(tr, 64, sizes[len(sizes)-1])
			if err != nil {
				t.Fatal(err)
			}
			for _, seed := range seeds {
				sp, err := memsys.SampledStackDistances(tr, 64, sizes[len(sizes)-1],
					memsys.SampledOptions{Rate: rate, Seed: seed, ExactLines: memsys.DefaultExactLines})
				if err != nil {
					t.Fatal(err)
				}
				for _, cs := range sizes {
					want, err := exact.MissRate(cs)
					if err != nil {
						t.Fatal(err)
					}
					got, err := sp.EstMissRate(cs)
					if err != nil {
						t.Fatal(err)
					}
					if d := math.Abs(got - want); d > maxAbsMR {
						t.Errorf("seed %d size %dK: |%.4f - %.4f| = %.4f > %.2f",
							seed, cs/1024, got, want, d, maxAbsMR)
					}
					lo, hi, err := sp.Band(cs)
					if err != nil {
						t.Fatal(err)
					}
					if lo > got || got > hi {
						t.Errorf("seed %d size %dK: band [%.4f, %.4f] does not contain estimate %.4f",
							seed, cs/1024, lo, hi, got)
					}
				}
			}
		})
	}
}

// TestWorkingSetsSampledEngine drills the wsweep-sampled job through the
// engine: curves come back banded and percent-scaled, a rate-1 run
// reproduces the exact fully-associative sweep bit for bit, and invalid
// rates are rejected before any job is scheduled.
func TestWorkingSetsSampledEngine(t *testing.T) {
	apps := []string{"fft", "radix"}
	sizes := DefaultCacheSizes()

	req := Request{
		Kind: KindWorkingSetsSampled, Apps: apps, Procs: 4, CacheSizes: sizes,
		SampleRate: 1, SampleSeed: 1, Scale: "default",
	}
	curves := do(t, req).Sampled
	if len(curves) != len(apps) {
		t.Fatalf("curves = %d, want %d", len(curves), len(apps))
	}
	req.Kind, req.Assocs = KindWorkingSets, []int{memsys.FullyAssoc}
	exact := do(t, req).MissCurves
	for i, c := range curves {
		if c.App != apps[i] || c.Rate != 1 || c.EffRate != 1 || c.ExactLines != memsys.DefaultExactLines {
			t.Errorf("curve %d identity: %+v", i, c)
		}
		for j := range sizes {
			if c.MissRate[j] != exact[i].MissRate[j] {
				t.Errorf("%s size %dK: rate-1 estimate %v != exact %v",
					c.App, sizes[j]/1024, c.MissRate[j], exact[i].MissRate[j])
			}
			if c.BandLo[j] != c.MissRate[j] || c.BandHi[j] != c.MissRate[j] {
				t.Errorf("%s size %dK: rate-1 band [%v, %v] not degenerate",
					c.App, sizes[j]/1024, c.BandLo[j], c.BandHi[j])
			}
		}
	}

	e, _ := NewEngine(EngineOptions{Workers: 1})
	for _, rate := range []float64{-0.5, 1.5} {
		req.Kind, req.SampleRate = KindWorkingSetsSampled, rate
		if _, err := e.Do(context.Background(), req, nil); err == nil {
			t.Errorf("rate %v accepted", rate)
		}
	}
	// A report's rate skips Canonical; the section itself rejects it.
	req.SampleRate = 0
	if err := e.newBatch().sampledSets(req)(&Results{}); err == nil {
		t.Error("rate 0 accepted")
	}
	if n := e.Counts().Executed; n != 0 {
		t.Errorf("invalid rates executed %d jobs", n)
	}
}
