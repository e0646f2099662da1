package memsys

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// buildSharingTrace builds a random trace with heavy read-write sharing
// (so coherence invalidations are frequent) and optional epoch resets.
func buildSharingTrace(seed int64, procs, events int, resets bool) *Trace {
	rng := rand.New(rand.NewSource(seed))
	var evs []uint64
	for i := 0; i < events; i++ {
		// Mix a small hot shared region with a larger per-processor region
		// so both invalidations and deep stack distances occur.
		p := rng.Intn(procs)
		var a Addr
		if rng.Intn(2) == 0 {
			a = Addr(rng.Intn(1024)) &^ 7
		} else {
			a = Addr(8192+p*4096+rng.Intn(4096)) &^ 7
		}
		evs = append(evs, traceEvent(p, a, rng.Intn(3) == 0))
		if resets && i > 0 && i%(events/3+1) == 0 {
			evs = append(evs, resetMarker)
		}
	}
	homes := make([]int32, 64)
	for i := range homes {
		homes[i] = int32(i % procs)
	}
	return flatTrace(evs, homes)
}

// stackSizes are the fully-associative capacities the equivalence tests
// compare at (in lines of 64 bytes): small enough to force evictions,
// large enough to hold everything.
var stackSizes = []int{1 << 6, 2 << 6, 4 << 6, 8 << 6, 16 << 6, 64 << 6, 512 << 6}

// TestStackDistanceMatchesReplayProperty: the one-pass profile must
// reproduce the per-processor and total miss counts of a fully-
// associative Replay at every cache size, on traces with invalidations
// and epoch resets.
func TestStackDistanceMatchesReplayProperty(t *testing.T) {
	f := func(seed int64, withResets bool) bool {
		const procs = 4
		tr := buildSharingTrace(seed, procs, 3000, withResets)
		sp, err := StackDistances(tr, 64, stackSizes[len(stackSizes)-1])
		if err != nil {
			t.Log(err)
			return false
		}
		for _, cs := range stackSizes {
			st, err := Replay(tr, Config{Procs: procs, CacheSize: cs, Assoc: FullyAssoc, LineSize: 64, OverheadBytes: 8})
			if err != nil {
				t.Log(err)
				return false
			}
			for p := range st.Procs {
				got, err := sp.ProcMisses(p, cs)
				if err != nil {
					t.Log(err)
					return false
				}
				if want := st.Procs[p].TotalMisses(); got != want {
					t.Logf("seed=%d resets=%v size=%d proc=%d: stackdist misses %d, replay %d", seed, withResets, cs, p, got, want)
					return false
				}
			}
			gotRate, err := sp.MissRate(cs)
			if err != nil {
				t.Log(err)
				return false
			}
			if gotRate != st.MissRate() {
				t.Logf("seed=%d size=%d: miss rate %v != replay %v", seed, cs, gotRate, st.MissRate())
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestStackDistanceRefsMatchReplay: reference counts after resets must
// agree with Replay's (both count only the final epoch).
func TestStackDistanceRefsMatchReplay(t *testing.T) {
	tr := buildSharingTrace(11, 4, 2000, true)
	sp, err := StackDistances(tr, 64, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	st, err := Replay(tr, Config{Procs: 4, CacheSize: 1 << 20, Assoc: FullyAssoc, LineSize: 64, OverheadBytes: 8})
	if err != nil {
		t.Fatal(err)
	}
	if sp.Refs() != st.Aggregate().Refs() {
		t.Fatalf("refs %d != replay refs %d", sp.Refs(), st.Aggregate().Refs())
	}
}

// TestStackDistanceAcrossLineSizes: the profile must stay exact at
// non-default line granularities (false-sharing invalidations differ per
// line size).
func TestStackDistanceAcrossLineSizes(t *testing.T) {
	tr := buildSharingTrace(5, 4, 2500, false)
	for _, ls := range []int{16, 64, 256} {
		sp, err := StackDistances(tr, ls, 256*ls)
		if err != nil {
			t.Fatal(err)
		}
		for _, lines := range []int{2, 16, 256} {
			cs := lines * ls
			st, err := Replay(tr, Config{Procs: 4, CacheSize: cs, Assoc: FullyAssoc, LineSize: ls, OverheadBytes: 8})
			if err != nil {
				t.Fatal(err)
			}
			got, err := sp.Misses(cs)
			if err != nil {
				t.Fatal(err)
			}
			if want := st.Aggregate().TotalMisses(); got != want {
				t.Fatalf("ls=%d cs=%d: misses %d != replay %d", ls, cs, got, want)
			}
		}
	}
}

func TestStackDistancesValidation(t *testing.T) {
	tr := buildTrace(1, 4, 100)
	if _, err := StackDistances(tr, 48, 1<<20); err == nil {
		t.Fatal("non-power-of-two line size accepted")
	}
	if _, err := StackDistances(tr, 64, 32); err == nil {
		t.Fatal("max cache size below line size accepted")
	}
	sp, err := StackDistances(tr, 64, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sp.MissRate(8192); err == nil {
		t.Fatal("query beyond profiled maximum accepted")
	}
	if _, err := sp.MissRate(96); err == nil {
		t.Fatal("non-multiple cache size accepted")
	}
}
