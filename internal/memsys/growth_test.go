package memsys

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestTableGrowthGeometric: first touches of ascending addresses beyond
// the reserved range re-make the tables O(log n) times, not once per
// touch, and each re-make is at least 1.5× the last.
func TestTableGrowthGeometric(t *testing.T) {
	const lines = 4000
	var s *System
	touch := func() {
		s = testSys(t, 1024, 2)
		for l := uint64(0); l < lines; l++ {
			s.Access(int(l%4), addrOfLine(l), true)
		}
	}
	// One re-make is 2 + Procs tables; 1.5× growth from one line to 4 000
	// is 21 re-makes (log1.5 4000 ≈ 20.5), against 4 000 for exact growth.
	allocs := testing.AllocsPerRun(1, touch)
	if limit := float64(30 * (2 + 4)); allocs > limit {
		t.Errorf("ascending first touches made %.0f allocations, want at most %.0f", allocs, limit)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := uint64(len(s.dir)); got < lines || got > 2*lines {
		t.Errorf("directory covers %d lines after touching %d", got, lines)
	}

	// Reserve stays exact, and on-demand growth past it is still geometric.
	s = testSys(t, 1024, 2)
	s.Reserve(1000)
	if len(s.words) != 1000 || len(s.dir) != 125 || len(s.caches[3].row) != 125 {
		t.Fatalf("Reserve(1000): %d words, %d dir, %d row lines", len(s.words), len(s.dir), len(s.caches[3].row))
	}
	s.Access(0, Addr(1000*WordBytes), false)
	if len(s.words) < 1500 {
		t.Errorf("growth past a reservation of 1000 words reached only %d", len(s.words))
	}
}

// TestOnDemandGrowthMatchesReserved feeds one generated reference stream
// — whose address range doubles halfway, as when a program allocates and
// first-touches in the middle of a Run — to a system reserved for the
// whole range up front, one reserved for the first half only, and one
// never reserved. Table sizing must be invisible: identical Stats and
// clean invariants.
func TestOnDemandGrowthMatchesReserved(t *testing.T) {
	const (
		procs     = 8
		halfWords = 64 * 8 // 64 lines: several times the 1 KB caches
		refs      = 40000
	)
	newSys := func() *System {
		s, err := New(Config{Procs: procs, CacheSize: 1024, Assoc: 2, LineSize: 64, OverheadBytes: 8},
			func(line uint64) int { return int(line % procs) })
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	full, half, none := newSys(), newSys(), newSys()
	full.Reserve(2 * halfWords)
	half.Reserve(halfWords)
	systems := []*System{full, half, none}

	rng := rand.New(rand.NewSource(7))
	var clock [procs]uint64
	for i := 0; i < refs; {
		span := halfWords
		if i >= refs/2 {
			span = 2 * halfWords
		}
		p := rng.Intn(procs)
		// A batch as mach flushes it, or one direct reference.
		n := 1 + rng.Intn(64)
		events := make([]uint64, n)
		times := make([]uint64, n)
		for j := range events {
			clock[p] += uint64(1 + rng.Intn(4))
			a := Addr(rng.Intn(span) * WordBytes)
			events[j] = uint64(a)<<8 | uint64(p)<<1
			if rng.Intn(3) == 0 {
				events[j] |= 1
			}
			times[j] = clock[p]
		}
		for _, s := range systems {
			if n == 1 {
				s.AccessAt(p, Addr(events[0]>>8), events[0]&1 == 1, times[0])
			} else {
				s.AccessBatch(p, events, times)
			}
		}
		i += n
	}

	want := full.Stats()
	for i, s := range systems {
		if err := s.CheckInvariants(); err != nil {
			t.Errorf("system %d: %v", i, err)
		}
		if got := s.Stats(); !reflect.DeepEqual(got, want) {
			t.Errorf("system %d: stats differ from the pre-reserved system\n got %+v\nwant %+v", i, got, want)
		}
	}
	if len(full.words) != 2*halfWords {
		t.Errorf("pre-reserved system re-sized its tables: %d words", len(full.words))
	}
}
