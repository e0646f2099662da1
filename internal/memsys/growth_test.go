package memsys

import (
	"math/rand"
	"reflect"
	"testing"
)

// feedOf returns a feed driving the testSys system s alone.
func feedOf(s *refSys) *Feed {
	f := NewFeed(s.cfg.Procs - 1)
	f.Add(s.System)
	return f
}

// TestTableGrowthGeometric: first touches of ascending addresses beyond
// the reserved range re-make the tables O(log n) times, not once per
// touch, and each re-make is at least 1.5× the last.
func TestTableGrowthGeometric(t *testing.T) {
	const lines = 4000
	var s *refSys
	var f *Feed
	ev := make([]uint64, 1)
	touch := func() {
		s = testSys(t, 1024, 2)
		f = feedOf(s)
		for l := uint64(0); l < lines; l++ {
			ev[0] = traceEvent(int(l%4), addrOfLine(l), true)
			if err := f.Batch(ev, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	// One re-make is 2 + Procs tables (the feed's write history, the
	// directory and each processor's row); 1.5× growth from one line to
	// 4 000 is 21 re-makes (log1.5 4000 ≈ 20.5), against 4 000 for exact
	// growth.
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
	f = feedOf(s)
	f.Reserve(1000)
	if len(f.words) != 1000 || len(s.dir) != 125 || len(s.caches[3].row) != 125 {
		t.Fatalf("Reserve(1000): %d words, %d dir, %d row lines", len(f.words), len(s.dir), len(s.caches[3].row))
	}
	if err := f.Batch([]uint64{traceEvent(0, Addr(1000*WordBytes), false)}, nil); err != nil {
		t.Fatal(err)
	}
	if len(f.words) < 1500 || uint64(len(s.dir))*64 < uint64(len(f.words))*WordBytes {
		t.Errorf("growth past a reservation of 1000 words reached only %d words, %d dir lines", len(f.words), len(s.dir))
	}
}

// TestOnDemandGrowthMatchesReserved feeds one generated reference stream
// — whose address range doubles halfway, as when a program allocates and
// first-touches in the middle of a Run — through a feed reserved for the
// whole range up front, one reserved for the first half only, and one
// never reserved, each driving one system, and reference by reference
// to a system driven from the map oracle. Table sizing must be
// invisible: identical Stats and clean invariants.
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
	feeds := make([]*Feed, 3)
	for i := range feeds {
		feeds[i] = NewFeed(procs - 1)
		feeds[i].Add(newSys())
	}
	full, half := feeds[0], feeds[1]
	full.Reserve(2 * halfWords)
	half.Reserve(halfWords)
	ref := oracle(newSys())

	rng := rand.New(rand.NewSource(7))
	var clock [procs]uint64
	for i := 0; i < refs; {
		span := halfWords
		if i >= refs/2 {
			span = 2 * halfWords
		}
		p := rng.Intn(procs)
		// A batch as mach flushes it.
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
		for _, f := range feeds {
			if err := f.Batch(events, times); err != nil {
				t.Fatal(err)
			}
		}
		for j, e := range events {
			ref.AccessAt(p, Addr(e>>8), e&1 == 1, times[j])
		}
		i += n
	}

	want := ref.Stats()
	for i, f := range feeds {
		s := f.Systems()[0]
		if err := s.CheckInvariants(); err != nil {
			t.Errorf("feed %d: %v", i, err)
		}
		if got := s.Stats(); !reflect.DeepEqual(got, want) {
			t.Errorf("feed %d: stats differ from the oracle-driven system\n got %+v\nwant %+v", i, got, want)
		}
	}
	if len(full.words) != 2*halfWords {
		t.Errorf("pre-reserved feed re-sized its tables: %d words", len(full.words))
	}
}
