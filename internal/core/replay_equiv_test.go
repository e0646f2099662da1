package core

import (
	"reflect"
	"testing"

	"splash2/internal/memsys"
)

// equivTestTrace records one program's reference stream at sweep scale
// for the fused-replay equivalence tests, which compare both paths on
// that one recording.
func equivTestTrace(t *testing.T, app string) *memsys.Trace {
	t.Helper()
	tr, _, err := RecordApp(app, 4, SweepScale.Overrides(app))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestReplayMultiMatchesReplayOnAppTraces: on real recorded application
// traces (not just synthetic streams), the fused multi-configuration
// replay must be deep-equal, configuration by configuration, to
// independent serial replays.
func TestReplayMultiMatchesReplayOnAppTraces(t *testing.T) {
	cfgs := []memsys.Config{
		{Procs: 4, CacheSize: 16 << 10, Assoc: 4, LineSize: 64},
		{Procs: 4, CacheSize: 64 << 10, Assoc: 1, LineSize: 64},
		{Procs: 4, CacheSize: 64 << 10, Assoc: memsys.FullyAssoc, LineSize: 64},
		{Procs: 4, CacheSize: 64 << 10, Assoc: 4, LineSize: 16},
		{Procs: 4, CacheSize: 64 << 10, Assoc: 4, LineSize: 256},
	}
	for _, app := range engineTestApps {
		tr := equivTestTrace(t, app)
		multi, err := memsys.ReplayMulti(tr, cfgs)
		if err != nil {
			t.Fatal(err)
		}
		for i, cfg := range cfgs {
			single, err := memsys.Replay(tr, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(multi[i], single) {
				t.Errorf("%s cfg %d: fused replay diverges from serial replay", app, i)
			}
		}
	}
}

// TestStackDistancesMatchReplayOnAppTraces: the one-pass stack-distance
// profile must reproduce fully-associative Replay miss counts and rates
// exactly on recorded application traces.
func TestStackDistancesMatchReplayOnAppTraces(t *testing.T) {
	sizes := []int{1 << 10, 4 << 10, 16 << 10, 64 << 10, 1 << 20}
	for _, app := range engineTestApps {
		tr := equivTestTrace(t, app)
		sp, err := memsys.StackDistances(tr, 64, sizes[len(sizes)-1])
		if err != nil {
			t.Fatal(err)
		}
		for _, cs := range sizes {
			st, err := memsys.Replay(tr, memsys.Config{Procs: 4, CacheSize: cs, Assoc: memsys.FullyAssoc, LineSize: 64})
			if err != nil {
				t.Fatal(err)
			}
			misses, err := sp.Misses(cs)
			if err != nil {
				t.Fatal(err)
			}
			if want := st.Aggregate().TotalMisses(); misses != want {
				t.Errorf("%s %dK: stack-distance misses %d, replay %d", app, cs/1024, misses, want)
			}
			rate, err := sp.MissRate(cs)
			if err != nil {
				t.Fatal(err)
			}
			if rate != st.MissRate() {
				t.Errorf("%s %dK: stack-distance miss rate %v not bit-identical to replay %v", app, cs/1024, rate, st.MissRate())
			}
		}
	}
}

// TestWorkingSetsMatchPerConfigReplays: the Figure-3 grid (the inclusion
// pass for set-associative points, stack distances for fully-associative
// ones) must be bit-identical to per-configuration replays of the same
// recording at every default size and associativity.
func TestWorkingSetsMatchPerConfigReplays(t *testing.T) {
	cacheSizes := DefaultCacheSizes()
	assocs := []int{1, 2, 4, 8, memsys.FullyAssoc}
	const app = "fft"

	tr := equivTestTrace(t, app)
	grid, err := workingSetMissRates(tr, cacheSizes, assocs)
	if err != nil {
		t.Fatal(err)
	}
	for ai, assoc := range assocs {
		if len(grid[ai]) != len(cacheSizes) {
			t.Fatalf("assoc=%d row has unexpected shape: %+v", assoc, grid[ai])
		}
		for si, cs := range cacheSizes {
			st, err := memsys.Replay(tr, memsys.Config{Procs: 4, CacheSize: cs, Assoc: assoc, LineSize: 64})
			if err != nil {
				t.Fatal(err)
			}
			if want := 100 * st.MissRate(); grid[ai][si] != want {
				t.Errorf("assoc=%d size=%dK: grid %v, per-config replay %v", assoc, cs/1024, grid[ai][si], want)
			}
		}
	}
}

// TestSetAssocSweepMatchesReplayMultiSuite: on each of the twelve
// programs' sweep-scale recordings at 8 processors, the inclusion pass
// must reproduce ReplayMulti's per-processor miss counts at every
// default cache size for 1-, 2- and 4-way caches.
func TestSetAssocSweepMatchesReplayMultiSuite(t *testing.T) {
	const procs = 8
	sizes := DefaultCacheSizes()
	for _, app := range Suite {
		tr, _, err := RecordApp(app, procs, SweepScale.Overrides(app))
		if err != nil {
			t.Fatal(err)
		}
		for _, assoc := range []int{1, 2, 4} {
			sp, err := memsys.SetAssocSweep(tr, 64, assoc, sizes)
			if err != nil {
				t.Fatal(err)
			}
			cfgs := make([]memsys.Config, len(sizes))
			for i, cs := range sizes {
				cfgs[i] = memsys.Config{Procs: procs, CacheSize: cs, Assoc: assoc, LineSize: 64}
			}
			stats, err := memsys.ReplayMulti(tr, cfgs)
			if err != nil {
				t.Fatal(err)
			}
			for i, cs := range sizes {
				for p, ps := range stats[i].Procs {
					got, err := sp.ProcMisses(p, cs)
					if err != nil {
						t.Fatal(err)
					}
					if want := ps.TotalMisses(); got != want {
						t.Errorf("%s %d-way %dK proc %d: sweep %d misses, ReplayMulti %d", app, assoc, cs/1024, p, got, want)
					}
				}
			}
		}
	}
}
