package memsys

import (
	"fmt"
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
			st, err := Replay(tr, Config{Procs: procs, CacheSize: cs, Assoc: FullyAssoc, LineSize: 64})
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
	st, err := Replay(tr, Config{Procs: 4, CacheSize: 1 << 20, Assoc: FullyAssoc, LineSize: 64})
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
			st, err := Replay(tr, Config{Procs: 4, CacheSize: cs, Assoc: FullyAssoc, LineSize: ls})
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

// TestFenwickWalks holds the early-stopping walks to a naive count
// array: between against a difference of prefix sums, move against a
// decrement and an increment, on random operations and on the paths
// that need their stopping rules — walks that merge only at the top of
// the tree, and a destination whose walk leaves the tree first.
func TestFenwickWalks(t *testing.T) {
	check := func(what string, f fenwick, naive []int32) {
		t.Helper()
		for lo := 0; lo < len(f); lo++ {
			var want int32
			for hi := lo; hi < len(f); hi++ {
				if hi > lo {
					want += naive[hi]
				}
				if got := f.between(lo, hi); got != want {
					t.Fatalf("%s: between(%d, %d) = %d, want %d", what, lo, hi, got, want)
				}
			}
		}
	}
	fill := func(n int, rng *rand.Rand) (fenwick, []int32) {
		f, naive := make(fenwick, n), make([]int32, n)
		for i := 1; i < n; i++ {
			v := int32(rng.Intn(3))
			f.add(i, v)
			naive[i] = v
		}
		return f, naive
	}
	rng := rand.New(rand.NewSource(1))

	// Slots 7 and 9 first share index 16, the root of a 17-slot tree; in
	// a 13-slot tree the walk from 12 leaves at 16 while the walk from 1
	// still updates 2, 4 and 8; in an 11-slot tree both walks from 3 and
	// 10 leave before they meet.
	for _, tc := range []struct{ n, from, to int }{
		{17, 7, 9}, {17, 9, 7}, {17, 1, 16}, {13, 1, 12}, {13, 12, 1}, {11, 3, 10}, {8, 5, 5},
	} {
		f, naive := fill(tc.n, rng)
		f.move(tc.from, tc.to)
		naive[tc.from]--
		naive[tc.to]++
		check(fmt.Sprintf("move(%d, %d) in %d slots", tc.from, tc.to, tc.n), f, naive)
	}

	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(70)
		f, naive := fill(n, rng)
		for op := 0; op < 50; op++ {
			i, j := 1+rng.Intn(n-1), 1+rng.Intn(n-1)
			if rng.Intn(2) == 0 {
				v := int32(rng.Intn(5) - 2)
				f.add(i, v)
				naive[i] += v
			} else {
				f.move(i, j)
				naive[i]--
				naive[j]++
			}
		}
		check(fmt.Sprintf("trial %d (%d slots)", trial, n), f, naive)
	}
}
