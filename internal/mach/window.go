package mach

import (
	"sync/atomic"
	"time"
)

// Logical-clock window throttling.
//
// Simulated processors are goroutines whose real-time scheduling is
// unrelated to their logical clocks: on a host with few cores, one
// goroutine can race ahead in real time and — through dynamic decisions
// like task stealing — absorb work that another processor would have
// executed much earlier in logical time, collapsing the simulated
// parallelism. The classic conservative fix is a simulation window: a
// processor whose logical clock is more than `window` cycles ahead of the
// slowest *active* processor yields until the laggards catch up.
// Processors blocked at synchronization points (barriers, flags, empty
// task queues) or finished with their phase are "parked" and excluded
// from the minimum, so the window can always advance.
//
// Throttling happens only at safe points where the caller holds no locks
// (the top of TaskQueues.PopOrSteal), and throttle is the only reader of
// published clocks, so publication is lazy: Instr/Flop/Read/Write only
// compare the clock against the last published value and do the atomic
// store once it has advanced publishLag cycles. While a processor is
// active its published clock therefore satisfies
//
//	published ≤ true clock  and  true clock − published < publishLag
//
// after every operation. A stale-low clock can only make a reader wait
// longer, never let it run further ahead, so throttle is at most
// publishLag/window = 1/64 more conservative than with exact clocks, and
// it stays live because the laggard it waits for republishes within
// publishLag cycles of progress. Publication is forced — exact — wherever
// the clock jumps or the processor stops advancing it: wait (sync joins),
// park and unpark, throttle itself, and flushRefs (every buffer drain and
// synchronization point).

// defaultWindow is the allowed clock divergence in cycles: large enough
// to keep real concurrency, small enough that stealing decisions stay
// close to what a logically-synchronous machine would do.
const defaultWindow = 4096

// publishLag bounds how far a processor's clock may run ahead of its
// published value between forced publications.
const publishLag = defaultWindow / 64

// clockSlot is one processor's published clock, padded to a cache line
// so publishing processors never contend for each other's slots.
type clockSlot struct {
	atomic.Uint64
	_ [56]byte
}

// windowState is embedded in Machine.
type windowState struct {
	clocks []clockSlot
	parked []atomic.Bool
	window uint64
}

func (w *windowState) init(procs int) {
	w.clocks = make([]clockSlot, procs)
	w.parked = make([]atomic.Bool, procs)
	w.window = defaultWindow
	for i := range w.parked {
		w.parked[i].Store(true) // parked until a Run body starts
	}
}

// publish records p's logical clock for window computations.
func (p *Proc) publish() {
	p.published = p.time
	p.m.win.clocks[p.ID].Store(p.time)
}

// tick publishes p's clock once it has run publishLag cycles past the
// published value; it is the whole per-instruction cost of the window.
func (p *Proc) tick() {
	if p.time-p.published >= publishLag {
		p.publish()
	}
}

// park marks p as blocked at a synchronization point (excluded from the
// window minimum); unpark re-activates it. Parking also flushes the
// reference buffer — a parked processor may stay blocked indefinitely,
// and everything it issued must be visible to whoever runs meanwhile
// (or to a quiescent-point reader like Snapshot/FinishRecording).
func (p *Proc) park() {
	p.flushRefs() // publishes the exact clock
	p.m.win.parked[p.ID].Store(true)
}

func (p *Proc) unpark() {
	p.m.win.parked[p.ID].Store(false)
	p.publish()
}

// minActiveClock returns the minimum published clock over non-parked
// processors; ok=false when every processor is parked.
func (m *Machine) minActiveClock() (min uint64, ok bool) {
	min = ^uint64(0)
	for i := range m.win.clocks {
		if m.win.parked[i].Load() {
			continue
		}
		if c := m.win.clocks[i].Load(); c < min {
			min = c
		}
		ok = true
	}
	return min, ok
}

// throttle blocks p (in real time only) while its logical clock is more
// than the window ahead of the slowest active processor. Must be called
// only when p holds no locks.
func (p *Proc) throttle() {
	p.publish()
	for {
		min, ok := p.m.minActiveClock()
		if !ok || p.time <= min+p.m.win.window {
			return
		}
		time.Sleep(20 * time.Microsecond)
	}
}
