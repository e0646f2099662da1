package mach

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
)

// Logical-time execution.
//
// Paper §2.2 runs every process as a thread of one simulator, switched in
// simulated-time order. Here each simulated processor still runs on its
// own goroutine, but exactly one of them — the holder of the machine's
// baton — executes at a time, and the baton always goes to the runnable
// processor with the smallest (clock, id). It moves at three kinds of
// point:
//
//  1. Before every synchronization operation, if a runnable processor is
//     logically earlier (yield). Lock grants, steals, completions and
//     flag observations therefore happen in logical-time order. Barrier
//     arrival and Lock.Release do not yield: arrivals commute, and an
//     early release just publishes its time sooner, which Acquire joins
//     anyway.
//  2. When the holder blocks: barrier arrival, a held lock, an unset
//     flag, nothing to pop or steal (block). The releasing operation
//     makes its waiters runnable at their PRAM join clock (wake); lock
//     waiters keep their request clocks, so the earliest retries first.
//  3. At the end of a quantum: tick hands the baton on once the holder's
//     clock reaches the next runnable clock plus quantum. Only a memory
//     system observes the interleaving between synchronization
//     operations, so without one the holder runs to its next.
//
// The host scheduler decides nothing, so every result is a function of
// the program, its input and the machine configuration. The yielding
// processor flushes its reference buffer before handing over, so the
// memory system sees references in baton order too.

// quantum is how far, in cycles, the holder may run past the next
// runnable processor's clock. It shapes only the interleaving of
// references in the memory system; synchronization order does not depend
// on it. Chosen by measurement (EXPERIMENTS.md, "Logical-time execution").
const quantum = 1024

// never is a yieldAt that no clock reaches.
const never = ^uint64(0)

// procState is a processor's standing with the scheduler.
type procState uint8

const (
	idle     procState = iota // outside a Run body
	runnable                  // holds or awaits the baton
	blocked                   // waits on Proc.on until a wake
)

// errDeadlock is raised when the holder blocks or finishes while every
// other unfinished processor is blocked.
var errDeadlock = errors.New("mach: deadlock: every unfinished processor is blocked")

// Run executes body once per processor, each on its own goroutine under
// the machine's baton, and returns when all have finished. It may be
// called repeatedly for multi-phase programs; logical clocks persist
// across calls. A panic in a body, or a deadlock, is re-raised on the
// caller's goroutine naming every blocked processor; the other
// processors' goroutines are released and exit.
func (m *Machine) Run(body func(p *Proc)) { m.run(m.procs, body) }

// RunOne executes body on processor 0 only (sequential setup phases).
func (m *Machine) RunOne(body func(p *Proc)) { m.run(m.procs[:1], body) }

func (m *Machine) run(procs []*Proc, body func(p *Proc)) {
	m.reserveAllocated()
	m.epochFork()
	var wg sync.WaitGroup
	wg.Add(len(procs))
	for _, p := range procs {
		p.state = runnable
		go func() {
			defer wg.Done()
			finished := false
			defer func() {
				if !finished {
					m.abort(p, recover())
				}
			}()
			p.await()
			body(p)
			p.exit()
			finished = true
		}()
	}
	m.next().baton <- struct{}{}
	wg.Wait()
	if m.failure != "" {
		panic(m.failure)
	}
}

// next returns the runnable processor with the smallest (clock, id), or
// nil if none is runnable.
func (m *Machine) next() *Proc {
	var n *Proc
	for _, q := range m.procs {
		if q.state == runnable && (n == nil || q.time < n.time) {
			n = q
		}
	}
	return n
}

// quantumEnd is the clock at which p must offer the baton: the smallest
// clock of any other runnable processor, plus quantum. A machine without
// a memory system has no quantum: its results do not depend on one, and
// the extra handoffs slow trace capture by about a quarter
// (EXPERIMENTS.md, "Logical-time execution").
func (m *Machine) quantumEnd(p *Proc) uint64 {
	end := never
	if len(m.feed.Systems()) == 0 {
		return end
	}
	for _, q := range m.procs {
		if q != p && q.state == runnable && q.time+quantum < end {
			end = q.time + quantum
		}
	}
	return end
}

// await parks p's goroutine until it is handed the baton.
func (p *Proc) await() {
	<-p.baton
	if p.m.failure != "" {
		runtime.Goexit()
	}
	p.yieldAt = p.m.quantumEnd(p)
}

// switchTo hands the baton from p to n and returns once p holds it again.
func (p *Proc) switchTo(n *Proc) {
	p.flushRefs()
	n.baton <- struct{}{}
	p.await()
}

// yield hands the baton to a logically earlier runnable processor, if
// there is one, and returns once p is the earliest again.
func (p *Proc) yield() {
	if n := p.m.next(); n != nil && n != p {
		p.switchTo(n)
	}
}

// block parks p on the synchronization object on until a wake names it.
func (p *Proc) block(on any) {
	p.state, p.on = blocked, on
	n := p.m.next()
	if n == nil {
		panic(errDeadlock)
	}
	p.switchTo(n)
}

// wake makes every processor blocked on on runnable at its PRAM join
// clock t in the synchronization epoch published as epoch. p keeps the
// baton, but its quantum now also ends relative to the woken clocks.
func (p *Proc) wake(on any, t, epoch uint64) {
	for _, q := range p.m.procs {
		if q.state == blocked && q.on == on {
			q.wait(t)
			q.syncAcquire(epoch)
			q.state, q.on = runnable, nil
		}
	}
	p.yieldAt = p.m.quantumEnd(p)
}

// exit retires p at the end of its body and passes the baton on.
func (p *Proc) exit() {
	p.flushRefs()
	p.state = idle
	if n := p.m.next(); n != nil {
		n.baton <- struct{}{}
		return
	}
	for _, q := range p.m.procs {
		if q.state == blocked {
			panic(errDeadlock)
		}
	}
}

// abort ends a failed Run from the goroutine of p, which holds the baton:
// it records the failure for Run to re-raise and releases every other
// live processor goroutine, which leaves through runtime.Goexit. r is
// the recovered panic value (nil if the body called runtime.Goexit).
func (m *Machine) abort(p *Proc, r any) {
	if m.failure != "" {
		return // p was released by an earlier abort
	}
	var b strings.Builder
	switch {
	case r == errDeadlock:
		b.WriteString(errDeadlock.Error())
	case r == nil:
		fmt.Fprintf(&b, "mach: processor %d left its body through runtime.Goexit", p.ID)
	default:
		fmt.Fprintf(&b, "mach: processor %d panicked: %v", p.ID, r)
	}
	for _, q := range m.procs {
		if q.state == blocked {
			fmt.Fprintf(&b, "\n  processor %d at clock %d waits on %T", q.ID, q.time, q.on)
		}
	}
	if r != errDeadlock {
		fmt.Fprintf(&b, "\n%s", debug.Stack())
	}
	m.failure = b.String()
	p.state = idle
	for _, q := range m.procs {
		if q.state != idle {
			q.state = idle
			q.baton <- struct{}{}
		}
	}
}
