package mach

import (
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"testing/quick"

	"splash2/internal/memsys"
)

func tinyMachine(t *testing.T, procs int, model MemModel) *Machine {
	t.Helper()
	m, err := New(Config{Procs: procs, CacheSize: 4096, Assoc: 2, LineSize: 64, MemModel: model})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestDefaultsApplied(t *testing.T) {
	m := MustNew(Config{Procs: 2})
	cfg := m.Config()
	if cfg.Procs != 2 {
		t.Fatalf("procs=%d", cfg.Procs)
	}
	mc := m.memCfg
	if mc.CacheSize != memsys.DefaultCacheSize || mc.LineSize != 64 || mc.OverheadBytes != 8 {
		t.Fatalf("defaults not applied: %+v", mc)
	}
}

func TestInvalidConfigRejected(t *testing.T) {
	if _, err := New(Config{Procs: 3, CacheSize: 100, LineSize: 64}); err == nil {
		t.Fatal("bad cache size accepted")
	}
}

func TestProcCountersAndClock(t *testing.T) {
	m := tinyMachine(t, 1, FullMem)
	a := m.NewF64(8, true, Blocked())
	m.Run(func(p *Proc) {
		p.Instr(10)
		p.Flop(5)
		a.Set(p, 0, 1.5)
		if a.Get(p, 0) != 1.5 {
			t.Error("array value lost")
		}
	})
	st := m.Snapshot()
	c := st.Procs[0]
	if c.Instr != 17 { // 10 + 5 flops + 1 write + 1 read
		t.Fatalf("instr=%d, want 17", c.Instr)
	}
	if c.Flops != 5 || c.Reads != 1 || c.Writes != 1 {
		t.Fatalf("counters: %+v", c)
	}
	if c.SharedReads != 1 || c.SharedWrites != 1 {
		t.Fatalf("shared counters: %+v", c)
	}
	if st.Time != 17 {
		t.Fatalf("time=%d, want 17", st.Time)
	}
}

func TestPrivateAllocationNotCountedShared(t *testing.T) {
	m := tinyMachine(t, 2, FullMem)
	priv := m.NewF64(8, false, Owner(0))
	m.RunOne(func(p *Proc) {
		priv.Set(p, 0, 1)
		priv.Get(p, 0)
	})
	c := m.Snapshot().Procs[0]
	if c.SharedReads != 0 || c.SharedWrites != 0 {
		t.Fatalf("private refs counted as shared: %+v", c)
	}
	if c.Reads != 1 || c.Writes != 1 {
		t.Fatalf("refs missing: %+v", c)
	}
}

func TestPlacements(t *testing.T) {
	if h := Blocked()(0, 10, 2); h != 0 {
		t.Errorf("blocked first line home %d", h)
	}
	if h := Blocked()(9, 10, 2); h != 1 {
		t.Errorf("blocked last line home %d", h)
	}
	if h := Interleaved()(5, 10, 4); h != 1 {
		t.Errorf("interleaved home %d", h)
	}
	if h := Owner(3)(7, 10, 8); h != 3 {
		t.Errorf("owner home %d", h)
	}
}

func TestAllocLineAligned(t *testing.T) {
	m := tinyMachine(t, 2, FullMem)
	a := m.Alloc(1, true, Blocked())
	b := m.Alloc(1, true, Blocked())
	if b-a != Addr(m.LineSize()) {
		t.Fatalf("allocations not line-aligned: %d %d", a, b)
	}
}

func TestBarrierJoinsClocks(t *testing.T) {
	m := tinyMachine(t, 4, CountOnly)
	b := m.NewBarrier()
	m.Run(func(p *Proc) {
		p.Instr(10 * (p.ID + 1)) // imbalanced work: 10,20,30,40
		b.Wait(p)
		if p.Time() != 40 {
			t.Errorf("proc %d time after barrier = %d, want 40", p.ID, p.Time())
		}
	})
	st := m.Snapshot()
	if st.Time != 40 {
		t.Fatalf("machine time %d, want 40", st.Time)
	}
	var maxWait uint64
	for _, c := range st.Procs {
		if c.Barriers != 1 {
			t.Fatalf("barrier count %d", c.Barriers)
		}
		if c.SyncWait > maxWait {
			maxWait = c.SyncWait
		}
	}
	if maxWait != 30 { // proc 0 waited 40-10
		t.Fatalf("max wait %d, want 30", maxWait)
	}
}

func TestBarrierReusable(t *testing.T) {
	m := tinyMachine(t, 3, CountOnly)
	b := m.NewBarrier()
	m.Run(func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Instr(p.ID + 1)
			b.Wait(p)
		}
	})
	for _, c := range m.Snapshot().Procs {
		if c.Barriers != 5 {
			t.Fatalf("barriers=%d, want 5", c.Barriers)
		}
	}
}

func TestLockSerializes(t *testing.T) {
	m := tinyMachine(t, 4, CountOnly)
	var l Lock
	m.Run(func(p *Proc) {
		l.Acquire(p)
		p.Instr(100) // critical section
		l.Release(p)
	})
	st := m.Snapshot()
	// Four 100-cycle critical sections must serialize: total time ≥ 400.
	if st.Time < 400 {
		t.Fatalf("lock did not serialize: T=%d", st.Time)
	}
	var locks uint64
	for _, c := range st.Procs {
		locks += c.Locks
	}
	if locks != 4 {
		t.Fatalf("lock count %d", locks)
	}
}

func TestFlagPropagatesTime(t *testing.T) {
	m := tinyMachine(t, 2, CountOnly)
	var f Flag
	m.Run(func(p *Proc) {
		if p.ID == 0 {
			p.Instr(500)
			f.Set(p)
		} else {
			f.Wait(p)
			if p.Time() < 500 {
				t.Errorf("waiter time %d < setter's 500", p.Time())
			}
			if p.c.Pauses != 1 {
				t.Errorf("pauses=%d", p.c.Pauses)
			}
		}
	})
}

func TestFlagSetBeforeWaitDoesNotBlock(t *testing.T) {
	m := tinyMachine(t, 1, CountOnly)
	var f Flag
	m.RunOne(func(p *Proc) {
		f.Set(p)
		f.Set(p) // idempotent
		if !f.IsSet() {
			t.Error("flag not set")
		}
		f.Wait(p)
	})
}

func TestEpochResetsMeasurement(t *testing.T) {
	m := tinyMachine(t, 2, FullMem)
	a := m.NewF64(64, true, Blocked())
	b := m.NewBarrier()
	m.Run(func(p *Proc) {
		a.Get(p, p.ID) // cold misses before the epoch
		m.Epoch(p, b)
		a.Get(p, p.ID) // warm hits after
	})
	st := m.Snapshot()
	ag := st.Mem.Aggregate()
	if ag.TotalMisses() != 0 {
		t.Fatalf("post-epoch misses: %d", ag.TotalMisses())
	}
	pc := Aggregate(st.Procs)
	if pc.Reads != 2 {
		t.Fatalf("post-epoch reads=%d, want 2", pc.Reads)
	}
}

func TestSnapshotMatchesMemsys(t *testing.T) {
	m := tinyMachine(t, 2, FullMem)
	a := m.NewF64(32, true, Blocked())
	m.Run(func(p *Proc) {
		for i := 0; i < 16; i++ {
			a.Get(p, i)
		}
	})
	st := m.Snapshot()
	memAgg := st.Mem.Aggregate()
	procAgg := Aggregate(st.Procs)
	if memAgg.Reads != procAgg.Reads {
		t.Fatalf("memsys reads %d != proc reads %d", memAgg.Reads, procAgg.Reads)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCountOnlySkipsMemsys(t *testing.T) {
	m := tinyMachine(t, 2, CountOnly)
	a := m.NewF64(8, true, Blocked())
	m.Run(func(p *Proc) { a.Get(p, 0) })
	st := m.Snapshot()
	if len(st.Mem.Procs) != 0 {
		t.Fatal("CountOnly produced memory stats")
	}
	if Aggregate(st.Procs).Reads != 2 {
		t.Fatalf("reads=%d", Aggregate(st.Procs).Reads)
	}
}

func TestTaskQueuesDrainAll(t *testing.T) {
	m := tinyMachine(t, 4, CountOnly)
	tq := m.NewTaskQueues(256)
	var mu sync.Mutex
	seen := map[int]bool{}
	m.Run(func(p *Proc) {
		for i := 0; i < 32; i++ {
			tq.Push(p, p.ID*1000+i)
		}
	})
	m.Run(func(p *Proc) {
		for {
			task, ok := tq.PopOrSteal(p)
			if !ok {
				return
			}
			mu.Lock()
			if seen[task] {
				t.Errorf("task %d popped twice", task)
			}
			seen[task] = true
			mu.Unlock()
			tq.Done(p)
		}
	})
	if len(seen) != 128 {
		t.Fatalf("drained %d tasks, want 128", len(seen))
	}
	if tq.Outstanding() != 0 {
		t.Fatalf("outstanding=%d", tq.Outstanding())
	}
}

func TestTaskQueuesStealingBalances(t *testing.T) {
	m := tinyMachine(t, 4, CountOnly)
	tq := m.NewTaskQueues(1024)
	var counts [4]int
	var mu sync.Mutex
	m.Run(func(p *Proc) {
		if p.ID == 0 { // all work starts on one queue
			for i := 0; i < 200; i++ {
				tq.Push(p, i)
			}
		}
	})
	m.Run(func(p *Proc) {
		for {
			_, ok := tq.PopOrSteal(p)
			if !ok {
				return
			}
			p.Instr(50)
			tq.Done(p)
		}
	})
	m.Run(func(p *Proc) {
		mu.Lock()
		counts[p.ID] = int(p.c.Locks)
		mu.Unlock()
	})
	total := 0
	stealers := 0
	for i, c := range counts {
		total += c
		if i > 0 && c > 0 {
			stealers++
		}
	}
	if stealers == 0 {
		t.Fatal("no processor ever stole work")
	}
	_ = total
}

func TestTaskQueueSubtasksTerminate(t *testing.T) {
	m := tinyMachine(t, 2, CountOnly)
	tq := m.NewTaskQueues(512)
	var processed sync.Map
	m.Run(func(p *Proc) {
		if p.ID == 0 {
			tq.Push(p, 1) // root task spawns children 2..20
		}
	})
	m.Run(func(p *Proc) {
		for {
			task, ok := tq.PopOrSteal(p)
			if !ok {
				return
			}
			processed.Store(task, true)
			if task == 1 {
				for c := 2; c <= 20; c++ {
					tq.Push(p, c)
				}
			}
			tq.Done(p)
		}
	})
	n := 0
	processed.Range(func(_, _ any) bool { n++; return true })
	if n != 20 {
		t.Fatalf("processed %d tasks, want 20", n)
	}
}

// Property: under PRAM timing, machine time with 1 processor equals the
// serial instruction count, and counters are exact for any random program.
func TestPRAMTimeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := MustNew(Config{Procs: 1, CacheSize: 1024, Assoc: 2, LineSize: 64, MemModel: FullMem})
		a := m.NewF64(64, true, Blocked())
		var want uint64
		m.RunOne(func(p *Proc) {
			for i := 0; i < 200; i++ {
				switch rng.Intn(3) {
				case 0:
					n := rng.Intn(10) + 1
					p.Instr(n)
					want += uint64(n)
				case 1:
					a.Get(p, rng.Intn(64))
					want++
				case 2:
					a.Set(p, rng.Intn(64), 1)
					want++
				}
			}
		})
		return m.Snapshot().Time == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: barrier time equality — after any barrier, all clocks agree
// and equal the max arrival clock.
func TestBarrierMaxProperty(t *testing.T) {
	f := func(work [8]uint8) bool {
		m := MustNew(Config{Procs: 4, CacheSize: 1024, Assoc: 2, LineSize: 64, MemModel: CountOnly})
		b := m.NewBarrier()
		var mu sync.Mutex
		times := map[uint64]bool{}
		var max uint64
		m.Run(func(p *Proc) {
			w := uint64(work[p.ID]) + 1
			p.Instr(int(w))
			mu.Lock()
			if w > max {
				max = w
			}
			mu.Unlock()
			b.Wait(p)
			mu.Lock()
			times[p.Time()] = true
			mu.Unlock()
		})
		return len(times) == 1 && times[max]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestReadNWriteN(t *testing.T) {
	m := tinyMachine(t, 1, FullMem)
	base := m.Alloc(16, true, Blocked())
	m.RunOne(func(p *Proc) {
		p.WriteN(base, 8)
		p.ReadN(base, 8)
	})
	c := m.Snapshot().Procs[0]
	if c.Reads != 8 || c.Writes != 8 {
		t.Fatalf("counters %+v", c)
	}
}

func TestC128ArrayTwoWordRefs(t *testing.T) {
	m := tinyMachine(t, 1, FullMem)
	a := m.NewC128(4, true, Blocked())
	m.RunOne(func(p *Proc) {
		a.Set(p, 1, 2+3i)
		if a.Get(p, 1) != 2+3i {
			t.Error("complex value lost")
		}
	})
	c := m.Snapshot().Procs[0]
	if c.Reads != 2 || c.Writes != 2 {
		t.Fatalf("complex refs: %+v", c)
	}
}

func TestRegionAddresses(t *testing.T) {
	m := tinyMachine(t, 2, FullMem)
	r := m.NewRegion(32, true, Interleaved())
	if r.WordAddr(4)-r.WordAddr(0) != 32 {
		t.Fatalf("word addressing wrong")
	}
}

// TestTableGrowthAmortized: allocation no longer re-makes the memory
// system's tables. 2 000 one-line Allocs before a run cost one exact
// reservation at Run entry, and 2 000 more made and first-touched in
// ascending order while the run executes grow the tables geometrically —
// O(log n) re-copies in all, where a reservation per Alloc (or growth to
// word+1 per touch) is n re-copies of 34 tables each.
func TestTableGrowthAmortized(t *testing.T) {
	const n = 2000
	program := func() *Machine {
		m := MustNew(Config{Procs: 32, CacheSize: 1 << 10, Assoc: 2, LineSize: 64})
		for i := 0; i < n; i++ {
			m.Alloc(1, true, Owner(i))
		}
		m.Run(func(p *Proc) {
			if p.ID != 0 {
				return
			}
			for i := 0; i < n; i++ {
				p.Write(m.Alloc(1, true, Owner(i)))
			}
		})
		return m
	}

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	m := program()
	runtime.ReadMemStats(&ms)
	bytes := ms.TotalAlloc - before

	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if w := m.Snapshot().Mem.Procs[0].Writes; w != n {
		t.Fatalf("memory system saw %d writes, want %d", w, n)
	}
	// Final tables, per line: 8 word-history entries and a directory
	// entry of 16 bytes each, and one 8-byte history stamp per processor.
	const lineBytes = 8*16 + 16 + 32*8
	if limit := uint64(8 * 2 * n * lineBytes); bytes > limit {
		t.Errorf("program allocated %d bytes, want at most %d (8× the final tables)", bytes, limit)
	}

	// Each Alloc publishes one homeMap snapshot; everything else —
	// machine construction, goroutines, append doublings and the table
	// re-copies — must fit in the slack, which a single re-copy per
	// Alloc (34 tables) would exceed sixtyfold.
	allocs := testing.AllocsPerRun(1, func() { program() })
	if limit := float64(2*n + 2000); allocs > limit {
		t.Errorf("program made %.0f allocations, want at most %.0f", allocs, limit)
	}
	t.Logf("%d bytes, %.0f allocations", bytes, allocs)
}

// TestMidRunAllocationMatchesPreReserved: a program that allocates and
// first-touches in the middle of a Run measures the same whether the
// memory system's tables were reserved for everything up front or sized
// at Run entry and grown on demand. Every processor touches only lines
// homed at itself, so the statistics are deterministic.
func TestMidRunAllocationMatchesPreReserved(t *testing.T) {
	const procs, perProc = 4, 24 // lines per processor: 1.5× the cache
	run := func(preReserve bool) Stats {
		m := MustNew(Config{Procs: procs, CacheSize: 1024, Assoc: 2, LineSize: 64})
		if preReserve {
			m.feed.Reserve(1 << 16)
		}
		lineWords := m.LineSize() / WordBytes
		sweep := func(p *Proc, base Addr) {
			mine := base + Addr(p.ID*perProc*m.LineSize())
			for pass := 0; pass < 3; pass++ {
				for w := 0; w < perProc*lineWords; w++ {
					p.Read(mine + Addr(w*WordBytes))
					if w%3 == 0 {
						p.Write(mine + Addr(w*WordBytes))
					}
				}
			}
		}
		first := m.Alloc(procs*perProc*lineWords, true, Blocked())
		var second Addr
		b := m.NewBarrier()
		m.Run(func(p *Proc) {
			sweep(p, first)
			b.Wait(p)
			if p.ID == 0 {
				second = m.Alloc(procs*perProc*lineWords, true, Blocked())
			}
			b.Wait(p)
			sweep(p, second)
		})
		if err := m.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		return m.Snapshot()
	}
	if got, want := run(false), run(true); !reflect.DeepEqual(got, want) {
		t.Errorf("on-demand tables changed the measurement\n got %+v\nwant %+v", got, want)
	}
}

// tapProgram is a small program with contention, a measurement epoch, a
// critical section and more references than a quantum, so a memory
// system attached to it sees coherence traffic, resets and handoffs.
func tapProgram(m *Machine) {
	a := m.NewF64(512, true, Interleaved())
	b := m.NewBarrier()
	var l Lock
	m.Run(func(p *Proc) {
		for i := 0; i < 300; i++ {
			a.Set(p, (i*7+p.ID*13)%512, 1)
			a.Get(p, (i*5+p.ID)%512)
		}
		m.Epoch(p, b)
		l.Acquire(p)
		a.Add(p, 0, 2)
		l.Release(p)
		for i := 0; i < 2000; i++ {
			a.Get(p, (i*11+p.ID*3)%512)
		}
	})
}

// TestAttachRejectsMismatchedSystems: a tap must share the machine's
// processor count and line size — Alloc rounds to machine lines and the
// home map indexes them — and a rejected tap leaves the machine as it was.
func TestAttachRejectsMismatchedSystems(t *testing.T) {
	for _, model := range []MemModel{CountOnly, FullMem} {
		m := tinyMachine(t, 4, model)
		for _, mc := range []memsys.Config{
			{Procs: 2, CacheSize: 4096, Assoc: 2, LineSize: 64},
			{Procs: 4, CacheSize: 4096, Assoc: 2, LineSize: 32},
			{Procs: 8, CacheSize: 4096, Assoc: 2, LineSize: 128},
		} {
			if _, err := m.Attach(mc); err == nil {
				t.Errorf("model %d: attached %d procs / %d B lines to a 4-proc 64 B-line machine", model, mc.Procs, mc.LineSize)
			}
		}
		if want := map[MemModel]int{CountOnly: 0, FullMem: 1}[model]; len(m.feed.Systems()) != want {
			t.Fatalf("model %d: %d systems after rejected taps, want %d", model, len(m.feed.Systems()), want)
		}
		if _, err := m.Attach(memsys.Config{Procs: 4, CacheSize: 2048, Assoc: 1, LineSize: 64}); err != nil {
			t.Fatalf("model %d: matching tap rejected: %v", model, err)
		}
	}
}

// TestAttachedSystemsMatchFullMem: one execution feeding two attached
// systems measures what two FullMem machines measure — counters and time
// equal, each system's Stats deep-equal — and a FullMem machine with an
// extra tap still snapshots exactly its own system.
func TestAttachedSystemsMatchFullMem(t *testing.T) {
	cfgA := Config{Procs: 4, CacheSize: 4096, Assoc: 2, LineSize: 64}
	cfgB := Config{Procs: 4, CacheSize: 1024, Assoc: 1, LineSize: 64}
	fullMem := func(cfg Config) Stats {
		m := MustNew(cfg)
		tapProgram(m)
		if err := m.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		return m.Snapshot()
	}
	wantA, wantB := fullMem(cfgA), fullMem(cfgB)
	if reflect.DeepEqual(wantA.Mem, wantB.Mem) || wantB.Mem.Aggregate().TotalMisses() == 0 {
		t.Fatal("the two configurations measure alike; the test would compare nothing")
	}

	m := MustNew(Config{Procs: 4, MemModel: CountOnly})
	sysA, errA := m.Attach(cfgA.MemConfig())
	sysB, errB := m.Attach(cfgB.MemConfig())
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	tapProgram(m)
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	st := m.Snapshot()
	if len(st.Mem.Procs) != 0 {
		t.Error("a count-only machine with taps snapshots memory stats")
	}
	if !reflect.DeepEqual(st.Procs, wantA.Procs) || st.Time != wantA.Time {
		t.Errorf("tapped counters differ from the FullMem run\n got %v\nwant %v", st, wantA)
	}
	if got := sysA.Stats(); !reflect.DeepEqual(got, wantA.Mem) {
		t.Errorf("tap A differs from its FullMem run\n got %+v\nwant %+v", got, wantA.Mem)
	}
	if got := sysB.Stats(); !reflect.DeepEqual(got, wantB.Mem) {
		t.Errorf("tap B differs from its FullMem run\n got %+v\nwant %+v", got, wantB.Mem)
	}

	m = MustNew(cfgA)
	sysB, err := m.Attach(cfgB.MemConfig())
	if err != nil {
		t.Fatal(err)
	}
	tapProgram(m)
	if got := m.Snapshot(); !reflect.DeepEqual(got, wantA) {
		t.Errorf("FullMem machine with a tap snapshots differently\n got %+v\nwant %+v", got, wantA)
	}
	if got := sysB.Stats(); !reflect.DeepEqual(got, wantB.Mem) {
		t.Errorf("tap on a FullMem machine differs from its own FullMem run")
	}
}
