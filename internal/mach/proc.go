package mach

// refBufCap is the per-processor reference buffer size. Large enough to
// amortize a flush — one pass of the write history, one loop per memory
// system, and a copy into the recorder's pending run — over 256
// references, small enough that a buffer is a few KiB of L1-resident
// state. Every consumer copies or consumes the batch during the flush,
// so the buffer is reused.
const refBufCap = 256

// Proc is one simulated processor. All methods must be called only from
// the goroutine running that processor's code.
type Proc struct {
	ID int

	m    *Machine
	time uint64 // logical PRAM clock
	c    Counters

	// Scheduling (see sched.go). baton receives the machine's baton;
	// yieldAt is the clock at which tick offers it to the next runnable
	// processor; on is the synchronization object a blocked processor
	// waits on.
	state   procState
	baton   chan struct{}
	yieldAt uint64
	on      any

	// Batched reference capture (see internal/README.md, "Event ordering
	// under batched capture"). References append to evbuf/tmbuf with no
	// interface call; flushRefs drains both into the machine's feed (every
	// attached memory system) and the recorder (its pending run) at
	// buffer-full, at every synchronization point and baton handoff, and
	// at phase ends.
	// epoch is the processor's Lamport-style synchronization epoch: it
	// strictly increases across every release→acquire edge the processor
	// participates in, which is what lets the recorder order per-proc
	// runs into one deterministic legal global order.
	epoch uint64
	evbuf []uint64 // packed addr<<8 | proc<<1 | write
	tmbuf []uint64 // requestor logical clock per event

	// Capture flags, maintained by Machine.setCaptureFlags whenever the
	// memory system or recorder attachment changes. capture gates the
	// whole buffering path; wantTimes gates the per-event clock stamp,
	// which only the memory system consumes (the recorder orders events
	// by sync epoch, not by clock). evbase is the processor's packed
	// proc<<1 bits, hoisted out of the per-reference encode.
	capture   bool
	wantTimes bool
	evbase    uint64
}

// Time returns the processor's logical clock (cycles since machine start).
func (p *Proc) Time() uint64 { return p.time }

// Instr accounts n non-memory instructions (one cycle each under PRAM).
func (p *Proc) Instr(n int) {
	p.c.Instr += uint64(n)
	p.time += uint64(n)
	p.tick()
}

// Flop accounts n floating-point operations; flops are instructions too.
func (p *Proc) Flop(n int) {
	p.c.Flops += uint64(n)
	p.c.Instr += uint64(n)
	p.time += uint64(n)
	p.tick()
}

// buffer appends one reference to the local buffer, flushing when full.
func (p *Proc) buffer(a Addr, write bool) {
	e := uint64(a)<<8 | p.evbase
	if write {
		e |= 1
	}
	p.evbuf = append(p.evbuf, e)
	if p.wantTimes {
		p.tmbuf = append(p.tmbuf, p.time)
	}
	if len(p.evbuf) == refBufCap {
		p.flushRefs()
	}
}

// tick offers the baton once the clock reaches the end of p's quantum; it
// is the whole per-instruction cost of logical-time execution.
func (p *Proc) tick() {
	if p.time >= p.yieldAt {
		p.yield()
	}
}

// flushRefs drains the reference buffer into the memory systems and the
// recorder. Must be called (directly or via a sync point) before any
// epoch change — recorded events are stamped with the epoch at flush
// time — before handing over the baton, and before any code reads
// memory-system statistics.
func (p *Proc) flushRefs() {
	if len(p.evbuf) == 0 {
		return
	}
	if err := p.m.feed.Batch(p.evbuf, p.tmbuf); err != nil {
		panic(err) // unreachable: processor ids are below the feed's bound
	}
	if rec := p.m.rec; rec != nil {
		rec.RecordBatch(p.ID, p.epoch, p.evbuf)
	}
	p.evbuf = p.evbuf[:0]
	p.tmbuf = p.tmbuf[:0]
}

// syncRelease flushes the reference buffer and returns the processor's
// epoch for publication into a synchronization object (lock release,
// flag set, barrier arrival). Everything the processor did so far is
// stamped at or below the returned epoch.
func (p *Proc) syncRelease() uint64 {
	p.flushRefs()
	return p.epoch
}

// syncAcquire flushes the reference buffer and joins the epoch published
// by the synchronization object the processor just acquired: subsequent
// events are stamped strictly after every event that happened before the
// matching release.
func (p *Proc) syncAcquire(published uint64) {
	p.flushRefs()
	if published+1 > p.epoch {
		p.epoch = published + 1
	}
}

// Read issues a load from byte address a.
func (p *Proc) Read(a Addr) {
	p.c.Instr++
	p.c.Reads++
	p.time++
	if p.m.isShared(a) {
		p.c.SharedReads++
	}
	if p.capture {
		p.buffer(a, false)
	}
	p.tick()
}

// Write issues a store to byte address a.
func (p *Proc) Write(a Addr) {
	p.c.Instr++
	p.c.Writes++
	p.time++
	if p.m.isShared(a) {
		p.c.SharedWrites++
	}
	if p.capture {
		p.buffer(a, true)
	}
	p.tick()
}

// ReadN issues n consecutive word loads starting at a.
func (p *Proc) ReadN(a Addr, n int) {
	for i := 0; i < n; i++ {
		p.Read(a + Addr(i*WordBytes))
	}
}

// WriteN issues n consecutive word stores starting at a.
func (p *Proc) WriteN(a Addr, n int) {
	for i := 0; i < n; i++ {
		p.Write(a + Addr(i*WordBytes))
	}
}

// WordBytes re-exports the simulated word size for applications.
const WordBytes = 8

// wait advances the clock to t, accounting the difference as sync wait.
func (p *Proc) wait(t uint64) {
	if t > p.time {
		p.c.SyncWait += t - p.time
		p.time = t
	}
}
