package mach

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestNextIsSmallestRunnable: the baton goes to the runnable processor
// with the smallest (clock, id); blocked and idle processors are skipped,
// and a holder's quantum ends relative to the other runnable clocks only
// — and never on a machine without a memory system, where nothing
// observes the interleaving between synchronization operations.
func TestNextIsSmallestRunnable(t *testing.T) {
	m := tinyMachine(t, 4, FullMem)
	set := func(id int, s procState, clock uint64) {
		m.procs[id].state, m.procs[id].time = s, clock
	}
	set(0, runnable, 100)
	set(1, runnable, 50)
	set(2, blocked, 10) // a blocked laggard must not hold the baton
	set(3, idle, 0)
	if n := m.next(); n != m.procs[1] {
		t.Fatalf("next = %+v, want processor 1", n)
	}
	if end := m.quantumEnd(m.procs[1]); end != 100+quantum {
		t.Fatalf("quantum of processor 1 ends at %d, want %d", end, 100+quantum)
	}
	if end := edgeMachine(t, 4).quantumEnd(m.procs[1]); end != never {
		t.Fatalf("count-only quantum ends at %d", end)
	}
	set(0, runnable, 50) // tie on the clock: the smaller id goes first
	if n := m.next(); n != m.procs[0] {
		t.Fatalf("next = %+v on a clock tie, want processor 0", n)
	}
	set(0, blocked, 50)
	set(1, idle, 50)
	if n := m.next(); n != nil {
		t.Fatalf("next = %+v with nothing runnable", n)
	}
	if end := m.quantumEnd(m.procs[0]); end != never {
		t.Fatalf("quantum ends at %d with nothing else runnable", end)
	}
}

// TestQuantumYieldsToLaggard: two processors doing straight-line work
// alternate every quantum, and the holder never runs more than a quantum
// past the other runnable processor's clock.
func TestQuantumYieldsToLaggard(t *testing.T) {
	m := tinyMachine(t, 2, FullMem)
	last, switches := -1, 0
	m.Run(func(p *Proc) {
		other := m.procs[1-p.ID]
		for i := 0; i < 8*quantum; i++ {
			p.Instr(1)
			if last != p.ID {
				last = p.ID
				switches++
			}
			if other.state == runnable && p.time > other.time+quantum {
				t.Errorf("processor %d at clock %d ran more than a quantum past processor %d at %d",
					p.ID, p.time, other.ID, other.time)
				return
			}
		}
	})
	if switches < 8 {
		t.Fatalf("%d baton switches over 8 quanta of work each, want at least 8", switches)
	}
}

// TestBlockedLaggardDoesNotHoldBaton: a processor blocked on a flag takes
// no part in the quantum, so the holder runs uninterrupted until it sets
// the flag, and the waiter resumes at the setter's clock.
func TestBlockedLaggardDoesNotHoldBaton(t *testing.T) {
	m := edgeMachine(t, 2)
	var f Flag
	const work = 10 * quantum
	m.Run(func(p *Proc) {
		if p.ID == 1 {
			f.Wait(p)
			if p.time != work || p.c.SyncWait != work {
				t.Errorf("waiter resumed at clock %d with SyncWait %d, want %d", p.time, p.c.SyncWait, work)
			}
			return
		}
		for i := 0; i < work; i++ {
			p.Instr(1)
		}
		if p.yieldAt != never {
			t.Errorf("holder's quantum ends at %d while the only other processor is blocked", p.yieldAt)
		}
		f.Set(p)
	})
}

// TestSmallestClockKeepsBaton: the earliest processor is never preempted,
// neither at a quantum end nor at a synchronization operation, by one
// that is logically later.
func TestSmallestClockKeepsBaton(t *testing.T) {
	m := tinyMachine(t, 2, FullMem)
	const ahead = 10 * quantum
	m.procs[1].time = ahead
	started := false
	m.Run(func(p *Proc) {
		if p.ID == 1 {
			started = true
			return
		}
		for p.time < ahead {
			p.Instr(1)
			if started {
				t.Errorf("processor 1 at clock %d ran while processor 0 was at %d", ahead, p.time)
				return
			}
		}
		var l Lock // on a clock tie the smaller id keeps the baton
		l.Acquire(p)
		l.Release(p)
		if started {
			t.Error("processor 1 ran at processor 0's synchronization operation")
		}
	})
	if !started {
		t.Fatal("processor 1 never ran")
	}
}

// TestRunHoldsOneBaton: exactly one processor executes at a time. The
// bodies share a slice appended without a lock through locks, barriers
// and task queues — under -race any overlap is reported — and every
// processor is idle before and after Run.
func TestRunHoldsOneBaton(t *testing.T) {
	const procs, tasks = 4, 50
	m := tinyMachine(t, procs, FullMem)
	checkIdle := func(when string) {
		for _, p := range m.procs {
			if p.state != idle {
				t.Fatalf("processor %d in state %d %s Run", p.ID, p.state, when)
			}
		}
	}
	checkIdle("before")
	b := m.NewBarrier()
	var l Lock
	tq := m.NewTaskQueues(2 * tasks)
	var log []int
	m.Run(func(p *Proc) {
		for i := 0; i < tasks; i++ {
			log = append(log, p.ID)
			p.Instr(100 * (p.ID + 1))
			l.Acquire(p)
			log = append(log, p.ID)
			l.Release(p)
			tq.Push(p, i)
		}
		b.Wait(p)
		for {
			if _, ok := tq.PopOrSteal(p); !ok {
				return
			}
			log = append(log, p.ID)
			p.Instr(500)
			tq.Done(p)
		}
	})
	checkIdle("after")
	if want := 3 * procs * tasks; len(log) != want {
		t.Fatalf("%d logged steps, want %d", len(log), want)
	}
}

// TestHandoffFlushesReferences: the yielding processor drains its
// reference buffer before handing over, so whenever a processor takes
// the baton the memory system has seen every reference the others made.
func TestHandoffFlushesReferences(t *testing.T) {
	m := tinyMachine(t, 2, FullMem)
	a := m.NewF64(64, true, Blocked())
	last := -1
	m.Run(func(p *Proc) {
		other := m.procs[1-p.ID]
		for i := 0; i < 4*quantum; i++ {
			if last != p.ID {
				last = p.ID
				if got := m.feed.Systems()[0].Stats().Procs[other.ID].Reads; got != other.c.Reads {
					t.Errorf("processor %d took the baton with %d of processor %d's %d reads in the memory system",
						p.ID, got, other.ID, other.c.Reads)
					return
				}
			}
			a.Get(p, i%64)
			p.Instr(2) // quanta do not end on a buffer boundary
		}
	})
}

// TestDeadlockPanicsWithWaiters: a Run that can no longer make progress,
// or whose body panics, panics on the caller's goroutine naming every
// blocked processor and what it waits on, and leaks no goroutine.
func TestDeadlockPanicsWithWaiters(t *testing.T) {
	const procs = 4
	rows := []struct {
		name    string
		body    func(m *Machine) func(p *Proc)
		blocked []int // processors named as blocked
		kind    string
		cause   string
	}{
		{"flag nobody sets", func(m *Machine) func(p *Proc) {
			var f Flag
			return func(p *Proc) { f.Wait(p) }
		}, []int{0, 1, 2, 3}, "*mach.Flag", "deadlock"},
		{"barrier for P+1", func(m *Machine) func(p *Proc) {
			b := NewBarrier(procs + 1)
			return func(p *Proc) {
				p.Instr(p.ID)
				b.Wait(p)
			}
		}, []int{0, 1, 2, 3}, "*mach.Barrier", "deadlock"},
		{"panicking body", func(m *Machine) func(p *Proc) {
			b := m.NewBarrier()
			return func(p *Proc) {
				if p.ID == procs-1 {
					p.Instr(1)
					panic("boom")
				}
				b.Wait(p)
			}
		}, []int{0, 1, 2}, "*mach.Barrier", "processor 3 panicked: boom"},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			m := edgeMachine(t, procs)
			msg := func() (msg string) {
				defer func() { msg = fmt.Sprint(recover()) }()
				m.Run(row.body(m))
				return "Run returned"
			}()
			if !strings.Contains(msg, row.cause) {
				t.Errorf("panic %q does not name the cause %q", msg, row.cause)
			}
			for _, id := range row.blocked {
				want := fmt.Sprintf("processor %d at clock %d waits on %s", id, m.procs[id].time, row.kind)
				if !strings.Contains(msg, want) {
					t.Errorf("panic does not contain %q:\n%s", want, msg)
				}
			}
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > before {
				t.Errorf("%d goroutines after the failed Run, %d before", n, before)
			}
		})
	}
}

// TestQueueOperationsIndivisible: a quantum that ends inside a pop or a
// steal must not let another processor into the same queue. Seven
// thieves drain one owner's queue with task lengths that make quanta end
// at many offsets of the queue code; every task is taken exactly once.
func TestQueueOperationsIndivisible(t *testing.T) {
	const procs, tasks = 8, 20000
	m := tinyMachine(t, procs, FullMem)
	tq := m.NewTaskQueues(tasks)
	m.RunOne(func(p *Proc) {
		for i := 0; i < tasks; i++ {
			tq.Push(p, i)
		}
	})
	taken := make([]int, tasks)
	m.Run(func(p *Proc) {
		for {
			task, ok := tq.PopOrSteal(p)
			if !ok {
				return
			}
			taken[task]++
			p.Instr(1 + task%7)
			tq.Done(p)
		}
	})
	for task, n := range taken {
		if n != 1 {
			t.Fatalf("task %d taken %d times", task, n)
		}
	}
}
