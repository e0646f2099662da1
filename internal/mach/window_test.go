package mach

import (
	"math/rand"
	"sync"
	"testing"
	"time"
)

func TestMinActiveClockExcludesParked(t *testing.T) {
	m := MustNew(Config{Procs: 3, CacheSize: 1024, Assoc: 2, LineSize: 64, MemModel: CountOnly})
	m.win.clocks[0].Store(100)
	m.win.clocks[1].Store(50)
	m.win.clocks[2].Store(10)
	m.win.parked[0].Store(false)
	m.win.parked[1].Store(false)
	m.win.parked[2].Store(true) // parked laggard must not hold the window
	min, ok := m.minActiveClock()
	if !ok || min != 50 {
		t.Fatalf("min=%d ok=%v, want 50", min, ok)
	}
	m.win.parked[0].Store(true)
	m.win.parked[1].Store(true)
	if _, ok := m.minActiveClock(); ok {
		t.Fatal("all parked reported active")
	}
}

func TestThrottleReleasesWhenLaggardAdvances(t *testing.T) {
	m := MustNew(Config{Procs: 2, CacheSize: 1024, Assoc: 2, LineSize: 64, MemModel: CountOnly})
	fast := m.procs[0]
	slow := m.procs[1]
	fast.unpark()
	slow.unpark()
	fast.time = defaultWindow * 3 // far ahead
	slow.time = 0
	slow.publish()

	done := make(chan struct{})
	go func() {
		fast.throttle()
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("throttle returned while laggard was behind")
	case <-time.After(20 * time.Millisecond):
	}
	// Advance the laggard: throttle must release.
	slow.time = defaultWindow * 3
	slow.publish()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("throttle never released after laggard caught up")
	}
}

func TestThrottleReleasesWhenLaggardParks(t *testing.T) {
	m := MustNew(Config{Procs: 2, CacheSize: 1024, Assoc: 2, LineSize: 64, MemModel: CountOnly})
	fast := m.procs[0]
	slow := m.procs[1]
	fast.unpark()
	slow.unpark()
	fast.time = defaultWindow * 5
	slow.time = 0
	slow.publish()

	done := make(chan struct{})
	go func() {
		fast.throttle()
		close(done)
	}()
	time.Sleep(10 * time.Millisecond)
	slow.park() // blocked at a barrier: excluded from the window
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("throttle never released after laggard parked")
	}
}

func TestMinProcNeverThrottles(t *testing.T) {
	m := MustNew(Config{Procs: 2, CacheSize: 1024, Assoc: 2, LineSize: 64, MemModel: CountOnly})
	p := m.procs[0]
	p.unpark()
	m.procs[1].unpark()
	m.win.clocks[1].Store(defaultWindow * 10) // other is far ahead
	p.time = 5
	doneCh := make(chan struct{})
	go func() {
		p.throttle() // the minimum proc must pass immediately
		close(doneCh)
	}()
	select {
	case <-doneCh:
	case <-time.After(time.Second):
		t.Fatal("minimum-clock processor was throttled")
	}
}

func TestRunBodiesUnparkAndPark(t *testing.T) {
	m := MustNew(Config{Procs: 2, CacheSize: 1024, Assoc: 2, LineSize: 64, MemModel: CountOnly})
	for i := range m.win.parked {
		if !m.win.parked[i].Load() {
			t.Fatal("procs not parked before Run")
		}
	}
	var mu sync.Mutex
	states := map[int]bool{}
	m.Run(func(p *Proc) {
		mu.Lock()
		states[p.ID] = m.win.parked[p.ID].Load()
		mu.Unlock()
	})
	for id, parked := range states {
		if parked {
			t.Fatalf("proc %d parked while running body", id)
		}
	}
	for i := range m.win.parked {
		if !m.win.parked[i].Load() {
			t.Fatalf("proc %d not re-parked after Run", i)
		}
	}
}

// TestClockPublicationLagBounded: publication is lazy but bounded. After
// any Instr/Flop/Read/Write the published clock never exceeds the true
// clock and never trails it by publishLag or more; wait, park, unpark,
// throttle and flushRefs publish the clock exactly.
func TestClockPublicationLagBounded(t *testing.T) {
	m := MustNew(Config{Procs: 2, CacheSize: 1024, Assoc: 2, LineSize: 64})
	a := m.Alloc(64, true, nil)
	p := m.procs[0]
	p.unpark()
	pub := func() uint64 { return m.win.clocks[p.ID].Load() }
	bounded := func(op string) {
		t.Helper()
		if got := pub(); got > p.time || p.time-got >= publishLag {
			t.Fatalf("after %s: published %d, true clock %d, lag bound %d", op, got, p.time, publishLag)
		}
	}
	exact := func(op string) {
		t.Helper()
		if got := pub(); got != p.time {
			t.Fatalf("%s published %d, true clock %d", op, got, p.time)
		}
	}

	// One instruction past a publication only compares and branches.
	p.Instr(1)
	if got := pub(); got != p.time-1 {
		t.Fatalf("Instr(1) stored the clock: published %d, true clock %d", got, p.time)
	}

	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 50000; i++ {
		switch rng.Intn(4) {
		case 0:
			p.Instr(rng.Intn(3 * publishLag))
			bounded("Instr")
		case 1:
			p.Flop(rng.Intn(8))
			bounded("Flop")
		case 2:
			p.Read(a + Addr(WordBytes*rng.Intn(64)))
			bounded("Read")
		case 3:
			p.Write(a + Addr(WordBytes*rng.Intn(64)))
			bounded("Write")
		}
	}

	p.Instr(1)
	p.wait(p.time + 1000)
	exact("wait")
	p.Instr(1)
	p.park()
	exact("park")
	p.time++ // stale published value: unpark must refresh it
	p.unpark()
	exact("unpark")
	p.Instr(1)
	p.throttle() // the only active processor: returns at once
	exact("throttle")
	p.Read(a)
	p.flushRefs()
	exact("flushRefs")
}

// TestClockPublicationUnderThrottle runs lazily publishing processors
// against throttle's concurrent reads (meaningful under -race) and
// requires every processor to end parked with its exact clock published.
func TestClockPublicationUnderThrottle(t *testing.T) {
	m := MustNew(Config{Procs: 4, CacheSize: 1024, Assoc: 2, LineSize: 64})
	a := m.Alloc(64, true, nil)
	m.Run(func(p *Proc) {
		for i := 0; i < 20000; i++ {
			p.Instr(1 + i%3)
			p.Read(a + Addr(WordBytes*(i%64)))
			if i%64 == 0 {
				p.throttle()
			}
		}
	})
	for i, p := range m.procs {
		if got := m.win.clocks[i].Load(); got != p.time {
			t.Errorf("proc %d ended with published %d, true clock %d", i, got, p.time)
		}
		if !m.win.parked[i].Load() {
			t.Errorf("proc %d not parked after Run", i)
		}
	}
}
