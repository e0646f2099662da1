package memsys

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// refSys drives one System reference by reference, keeping the word
// write history in a map: a naive last-writer oracle for what a Feed
// hands each reference, independent of the feed's packed table.
type refSys struct {
	*System
	last map[uint64]uint64 // word → seq<<7 | writer+1
	seq  uint64            // references so far, counted as a Feed counts them
}

func oracle(s *System) *refSys { return &refSys{System: s, last: map[uint64]uint64{}} }

// Access simulates one reference with the requestor clock unknown.
func (s *refSys) Access(p int, a Addr, write bool) (hit bool, kind MissKind) {
	return s.AccessAt(p, a, write, 0)
}

// AccessAt simulates one reference at requestor clock now (0: the
// sequence number stands in).
func (s *refSys) AccessAt(p int, a Addr, write bool, now uint64) (hit bool, kind MissKind) {
	w := a.Word()
	s.growLines(w + 1)
	s.seq++
	if now == 0 {
		now = s.seq
	}
	before := s.procs[p].Misses
	s.access(traceEvent(p, a, write), s.last[w], s.seq, now)
	if write {
		s.last[w] = s.seq<<7 | uint64(p+1)
	}
	for k, n := range s.procs[p].Misses {
		if n != before[k] {
			return false, MissKind(k)
		}
	}
	return true, 0
}

// testSys builds a small system: 4 procs, tiny caches, 64B lines, homes
// assigned round-robin by line.
func testSys(t *testing.T, cacheSize int, assoc int) *refSys {
	t.Helper()
	s, err := New(Config{
		Procs: 4, CacheSize: cacheSize, Assoc: assoc, LineSize: 64, OverheadBytes: 8,
	}, func(line uint64) int { return int(line % 4) })
	if err != nil {
		t.Fatal(err)
	}
	return oracle(s)
}

func addrOfLine(line uint64) Addr { return Addr(line * 64) }

func TestColdMissThenHit(t *testing.T) {
	s := testSys(t, 1024, 2)
	hit, kind := s.Access(0, 0, false)
	if hit || kind != MissCold {
		t.Fatalf("first access: hit=%v kind=%v, want cold miss", hit, kind)
	}
	hit, _ = s.Access(0, 8, false) // same line
	if !hit {
		t.Fatal("second access to same line should hit")
	}
	st := s.Stats()
	if st.Procs[0].Reads != 2 || st.Procs[0].Misses[MissCold] != 1 {
		t.Fatalf("stats: %+v", st.Procs[0])
	}
}

func TestIllinoisExclusiveOnSoleRead(t *testing.T) {
	s := testSys(t, 1024, 2)
	s.Access(0, 0, false)
	if got := s.caches[0].peek(0); got != Exclusive {
		t.Fatalf("sole read loads %v, want Exclusive", got)
	}
	// A silent upgrade on write: no invalidations, no upgrade counter.
	s.Access(0, 0, true)
	if got := s.caches[0].peek(0); got != Modified {
		t.Fatalf("write to Exclusive: %v, want Modified", got)
	}
	if up := s.Stats().Procs[0].Upgrades; up != 0 {
		t.Fatalf("silent E→M counted as upgrade: %d", up)
	}
}

func TestSecondReaderGetsShared(t *testing.T) {
	s := testSys(t, 1024, 2)
	s.Access(0, 0, false)
	s.Access(1, 0, false)
	if s.caches[0].peek(0) != Shared || s.caches[1].peek(0) != Shared {
		t.Fatalf("states: %v %v, want S S", s.caches[0].peek(0), s.caches[1].peek(0))
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestUpgradeInvalidatesSharers(t *testing.T) {
	s := testSys(t, 1024, 2)
	s.Access(0, 0, false)
	s.Access(1, 0, false)
	s.Access(0, 0, true) // upgrade
	if s.caches[0].peek(0) != Modified {
		t.Fatalf("writer state %v, want M", s.caches[0].peek(0))
	}
	if s.caches[1].peek(0) != Invalid {
		t.Fatalf("sharer not invalidated: %v", s.caches[1].peek(0))
	}
	if up := s.Stats().Procs[0].Upgrades; up != 1 {
		t.Fatalf("upgrades=%d, want 1", up)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestTrueSharingMiss(t *testing.T) {
	s := testSys(t, 1024, 2)
	s.Access(1, 0, false) // P1 reads word 0
	s.Access(0, 0, true)  // P0 writes word 0 → invalidates P1
	hit, kind := s.Access(1, 0, false)
	if hit || kind != MissTrue {
		t.Fatalf("re-read of remotely written word: hit=%v kind=%v, want true-sharing miss", hit, kind)
	}
}

func TestFalseSharingMiss(t *testing.T) {
	s := testSys(t, 1024, 2)
	s.Access(1, 8, false) // P1 reads word 1 of line 0
	s.Access(0, 0, true)  // P0 writes word 0 → invalidates P1's line
	hit, kind := s.Access(1, 8, false)
	if hit || kind != MissFalse {
		t.Fatalf("re-read of unmodified word on invalidated line: kind=%v, want false-sharing", kind)
	}
}

func TestCapacityMiss(t *testing.T) {
	// Direct-mapped, 4 lines: lines 0 and 4 conflict.
	s := testSys(t, 256, 1)
	s.Access(0, addrOfLine(0), false)
	s.Access(0, addrOfLine(4), false) // evicts line 0
	hit, kind := s.Access(0, addrOfLine(0), false)
	if hit || kind != MissCapacity {
		t.Fatalf("refetch after eviction: kind=%v, want capacity", kind)
	}
}

func TestEvictedThenRemotelyWrittenIsTrueSharing(t *testing.T) {
	// True sharing is capacity-independent (§6): if the word was written by
	// another processor after we lost the line — even by eviction — the
	// refetch is inherent communication.
	s := testSys(t, 256, 1)
	s.Access(0, addrOfLine(0), false)
	s.Access(0, addrOfLine(4), false) // evict line 0 from P0
	s.Access(1, addrOfLine(0), true)  // P1 writes the word P0 read
	hit, kind := s.Access(0, addrOfLine(0), false)
	if hit || kind != MissTrue {
		t.Fatalf("kind=%v, want true-sharing", kind)
	}
}

func TestDirtyRemoteFetchSharingWriteback(t *testing.T) {
	s := testSys(t, 1024, 2)
	s.Access(0, 0, true) // P0: M
	before := s.Stats().Traffic
	s.Access(1, 0, false) // P1 read miss, dirty at P0
	after := s.Stats().Traffic
	if s.caches[0].peek(0) != Shared || s.caches[1].peek(0) != Shared {
		t.Fatalf("states after dirty read: %v %v", s.caches[0].peek(0), s.caches[1].peek(0))
	}
	// Data crossed P0→P1 (remote shared or cold) plus sharing writeback to home.
	if after.Remote() <= before.Remote() {
		t.Fatal("dirty remote fetch generated no remote traffic")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestWriteMissMigratesOwnership(t *testing.T) {
	s := testSys(t, 1024, 2)
	s.Access(0, 0, true)
	s.Access(1, 0, true) // write miss, dirty at P0
	if s.caches[0].peek(0) != Invalid || s.caches[1].peek(0) != Modified {
		t.Fatalf("states: %v %v, want I M", s.caches[0].peek(0), s.caches[1].peek(0))
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestWritebackOnDirtyEviction(t *testing.T) {
	s := testSys(t, 256, 1) // 4 lines direct-mapped
	// Line 0's home is proc 0; run on proc 1 so the writeback is remote.
	s.Access(1, addrOfLine(0), true)
	before := s.Stats().Traffic.RemoteWriteback
	s.Access(1, addrOfLine(4), false) // evicts dirty line 0, home=0 remote
	after := s.Stats().Traffic.RemoteWriteback
	if after != before+64 {
		t.Fatalf("remote writeback bytes: %d → %d, want +64", before, after)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestLocalVsRemoteData(t *testing.T) {
	s := testSys(t, 1024, 2)
	// Line 0 homes at proc 0: local fill.
	s.Access(0, addrOfLine(0), false)
	tr := s.Stats().Traffic
	if tr.LocalData != 64 || tr.Remote() != 0 {
		t.Fatalf("local fill: %+v", tr)
	}
	// Line 1 homes at proc 1: remote fill by proc 0 = request + data + header.
	s.Access(0, addrOfLine(1), false)
	tr = s.Stats().Traffic
	if tr.RemoteCold != 64 {
		t.Fatalf("remote cold data = %d, want 64", tr.RemoteCold)
	}
	if tr.RemoteOverhead != 16 { // request 8 + data header 8
		t.Fatalf("remote overhead = %d, want 16", tr.RemoteOverhead)
	}
}

func TestTrueSharingTrafficMetric(t *testing.T) {
	s := testSys(t, 1024, 2)
	s.Access(1, 0, false)
	s.Access(0, 0, true)
	s.Access(1, 0, false) // true-sharing miss: 64B data
	if got := s.Stats().Traffic.TrueSharingData; got != 64 {
		t.Fatalf("true sharing data = %d, want 64", got)
	}
}

func TestReplacementHintKeepsDirectoryExact(t *testing.T) {
	s := testSys(t, 256, 1)
	s.Access(0, addrOfLine(1), false) // shared line homed remotely
	s.Access(1, addrOfLine(1), false)
	s.Access(0, addrOfLine(5), false) // evicts line 1 from P0 (hint)
	if d := s.dir[1]; d.sharers != 1<<1 {
		t.Fatalf("directory sharers after hint: %b, want only P1", d.sharers)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestResetStatsKeepsCachesWarm(t *testing.T) {
	s := testSys(t, 1024, 2)
	s.Access(0, 0, false)
	s.ResetStats()
	st := s.Stats()
	if st.Procs[0].Reads != 0 || st.Traffic.Total() != 0 {
		t.Fatalf("stats not reset: %+v", st)
	}
	hit, _ := s.Access(0, 0, false)
	if !hit {
		t.Fatal("cache went cold across ResetStats")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Procs: -1},
		{Procs: 65, CacheSize: 1024, LineSize: 64, OverheadBytes: 8},
		{Procs: 2, CacheSize: 1000, LineSize: 64, OverheadBytes: 8},
		{Procs: 2, CacheSize: 1024, LineSize: 48, OverheadBytes: 8},
		{Procs: 2, CacheSize: 1024, LineSize: 64, Assoc: 3, OverheadBytes: 8},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d validated but should not: %+v", i, c)
		}
	}
	if _, err := New(Config{Procs: 2}, nil); err == nil {
		t.Error("nil HomeFn accepted")
	}
}

// Property: after any random access trace the protocol invariants hold —
// at most one E/M copy per line, directory sharer sets match cache
// contents, owner pointer consistent.
func TestProtocolInvariantsProperty(t *testing.T) {
	f := func(seed int64, assocSel, sizeSel uint8) bool {
		assocs := []int{1, 2, 4, FullyAssoc}
		sizes := []int{256, 512, 1024}
		sys, err := New(Config{
			Procs:     4,
			CacheSize: sizes[int(sizeSel)%len(sizes)],
			Assoc:     assocs[int(assocSel)%len(assocs)],
			LineSize:  64, OverheadBytes: 8,
		}, func(line uint64) int { return int(line % 4) })
		if err != nil {
			return false
		}
		s := oracle(sys)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 2000; i++ {
			p := rng.Intn(4)
			a := Addr(rng.Intn(64*32)) &^ 7
			s.Access(p, a, rng.Intn(3) == 0)
		}
		return s.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: every reference is either a hit or exactly one miss kind, and
// per-proc reads+writes equals issued references.
func TestAccountingConservationProperty(t *testing.T) {
	f := func(seed int64) bool {
		sys, err := New(Config{Procs: 4, CacheSize: 512, Assoc: 2, LineSize: 64, OverheadBytes: 8},
			func(line uint64) int { return int(line % 4) })
		if err != nil {
			return false
		}
		s := oracle(sys)
		rng := rand.New(rand.NewSource(seed))
		issued := make([]uint64, 4)
		misses := uint64(0)
		for i := 0; i < 1500; i++ {
			p := rng.Intn(4)
			a := Addr(rng.Intn(64*64)) &^ 7
			hit, _ := s.Access(p, a, rng.Intn(2) == 0)
			issued[p]++
			if !hit {
				misses++
			}
		}
		st := s.Stats()
		var total uint64
		for p := range issued {
			if st.Procs[p].Refs() != issued[p] {
				return false
			}
			total += st.Procs[p].TotalMisses()
		}
		return total == misses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: with a single processor no sharing misses or remote sharing
// traffic can ever occur.
func TestUniprocessorHasNoSharingProperty(t *testing.T) {
	f := func(seed int64) bool {
		sys, err := New(Config{Procs: 1, CacheSize: 512, Assoc: 2, LineSize: 64, OverheadBytes: 8},
			func(line uint64) int { return 0 })
		if err != nil {
			return false
		}
		s := oracle(sys)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 1000; i++ {
			s.Access(0, Addr(rng.Intn(64*64))&^7, rng.Intn(2) == 0)
		}
		st := s.Stats()
		return st.Procs[0].Misses[MissTrue] == 0 &&
			st.Procs[0].Misses[MissFalse] == 0 &&
			st.Traffic.Remote() == 0 &&
			st.Traffic.TrueSharingData == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: miss rate is monotonically non-increasing in cache size for a
// fully associative cache replaying the same single-processor trace
// (inclusion property of LRU).
func TestLRUInclusionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		trace := make([]Addr, 3000)
		for i := range trace {
			trace[i] = Addr(rng.Intn(64*128)) &^ 7
		}
		var prev uint64 = ^uint64(0)
		for _, size := range []int{512, 1024, 2048, 4096} {
			sys, err := New(Config{Procs: 1, CacheSize: size, Assoc: FullyAssoc, LineSize: 64, OverheadBytes: 8},
				func(line uint64) int { return 0 })
			if err != nil {
				return false
			}
			s := oracle(sys)
			for _, a := range trace {
				s.Access(0, a, false)
			}
			m := s.Stats().Procs[0].TotalMisses()
			if m > prev {
				return false
			}
			prev = m
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestMissKindStrings(t *testing.T) {
	want := map[MissKind]string{MissCold: "cold", MissTrue: "true-sharing", MissFalse: "false-sharing", MissCapacity: "capacity", numMissKinds: "unknown"}
	for k, w := range want {
		if k.String() != w {
			t.Errorf("%d.String()=%q want %q", k, k.String(), w)
		}
	}
	if Invalid.String() != "I" || Shared.String() != "S" || Exclusive.String() != "E" || Modified.String() != "M" || LineState(9).String() != "?" {
		t.Error("LineState strings wrong")
	}
}
