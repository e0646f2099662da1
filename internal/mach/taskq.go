package mach

// TaskQueues implements the distributed task queues with task stealing
// used by Radiosity, Raytrace, Volrend and Cholesky: one queue per
// processor, locally pushed and popped LIFO, stolen FIFO from victims
// scanned round-robin. Queue slots and head/tail words live in simulated
// shared memory (homed at the owning processor), so queue operations
// generate the communication that stealing causes in the real programs.
//
// Timing model: every queue operation begins by yielding to all
// logically earlier processors, so which processor pops or steals which
// task is decided in logical-time order. The yield also leaves the holder
// a full quantum before tick can hand the baton on, and no operation
// costs that much (a steal scan probes at most 63 queues), so each one
// is an indivisible step. Dequeues of distinct tasks are logically
// independent, so a queue operation does not propagate release times
// between processors the way a data lock does — otherwise an owner's
// local pops would drag every thief's clock forward and fabricate
// serialization. Instead each task carries the logical time it was
// pushed: an executor resumes at max(own clock, push time), which is the
// true dependence. Idle processors block until a push or final
// completion and charge the wait as synchronization time (the paper's
// "user defined synchronization" category for Radiosity).
type TaskQueues struct {
	m           *Machine
	slots       []*IntArray // per-proc circular buffers of task ids
	stamps      []*IntArray // logical push times, parallel to slots
	heads       *IntArray   // per-proc head index (steal end)
	tails       *IntArray   // per-proc tail index (local end)
	qEpoch      []uint64    // per-queue sync epoch
	outstanding int64       // pushed but not yet Done
	capacity    int

	// The latest push or final completion, which idle processors join.
	eventTime  uint64
	eventEpoch uint64
}

// Modeled instruction costs: examining one remote queue while stealing,
// and the atomic lock/unlock pair around a queue operation.
const (
	probeCost  = 4
	lockOpCost = 2
)

// NewTaskQueues creates per-processor queues with the given capacity each.
func (m *Machine) NewTaskQueues(capacity int) *TaskQueues {
	t := &TaskQueues{m: m, capacity: capacity}
	n := m.Procs()
	t.slots = make([]*IntArray, n)
	t.stamps = make([]*IntArray, n)
	for i := 0; i < n; i++ {
		t.slots[i] = m.NewInt(capacity, true, Owner(i))
		t.stamps[i] = m.NewInt(capacity, true, Owner(i))
	}
	// head/tail counters padded to one line apiece to avoid false sharing
	// between owners — the applications pad their queue headers similarly.
	pad := m.LineSize() / WordBytes
	t.heads = m.NewInt(n*pad, true, Interleaved())
	t.tails = m.NewInt(n*pad, true, Interleaved())
	t.qEpoch = make([]uint64, n)
	return t
}

func (t *TaskQueues) pad() int { return t.m.LineSize() / WordBytes }

// signal records a queue event (push, or last completion) at the caller's
// logical time and wakes blocked thieves to it. It is an epoch release
// edge to match the waiters' acquire in PopOrSteal.
func (t *TaskQueues) signal(p *Proc) {
	if p.time > t.eventTime {
		t.eventTime = p.time
	}
	if e := p.syncRelease(); e > t.eventEpoch {
		t.eventEpoch = e
	}
	p.wake(t, t.eventTime, t.eventEpoch)
}

// Push enqueues a task on p's own queue. Each queue operation is an
// epoch acquire/release pair on the queue (like Lock): the slot words a
// pusher writes merge before the reads of whichever processor later pops
// or steals the task, because that processor's operation joins a
// strictly higher epoch.
func (t *TaskQueues) Push(p *Proc, task int) {
	p.yield()
	t.outstanding++
	q := p.ID
	p.c.Locks++
	p.syncAcquire(t.qEpoch[q])
	p.Instr(lockOpCost)
	tail := t.tails.Get(p, q*t.pad())
	head := t.heads.Get(p, q*t.pad())
	if tail-head >= t.capacity {
		panic("mach: task queue overflow; increase capacity")
	}
	t.slots[q].Set(p, tail%t.capacity, task)
	t.stamps[q].Set(p, tail%t.capacity, int(p.time))
	t.tails.Set(p, q*t.pad(), tail+1)
	if e := p.syncRelease(); e > t.qEpoch[q] {
		t.qEpoch[q] = e
	}
	t.signal(p)
}

// Done marks one previously popped task complete. PopOrSteal only reports
// global exhaustion when every pushed task has been marked Done, so tasks
// that spawn subtasks (Radiosity) terminate correctly. Done yields first
// like every queue operation: a thief must never see a completion from
// its logical future.
func (t *TaskQueues) Done(p *Proc) {
	p.yield()
	t.outstanding--
	if t.outstanding == 0 {
		t.signal(p)
	}
}

// PopOrSteal dequeues from p's own queue, stealing from others when empty.
// It returns ok=false only when all tasks everywhere are complete.
func (t *TaskQueues) PopOrSteal(p *Proc) (task int, ok bool) {
	for {
		p.yield()
		task, ok := t.tryPop(p, p.ID, true)
		n := t.m.Procs()
		for i := 1; i < n && !ok; i++ {
			victim := (p.ID + i) % n
			p.Instr(probeCost)
			if t.heads.Peek(victim*t.pad()) != t.tails.Peek(victim*t.pad()) {
				task, ok = t.tryPop(p, victim, false)
			}
		}
		if ok {
			return task, true
		}
		if t.outstanding == 0 {
			// All work complete: idle until the finishing event.
			p.wait(t.eventTime)
			p.syncAcquire(t.eventEpoch)
			return 0, false
		}
		// Tasks are in flight elsewhere: block until a push or completion
		// wakes p at that event's logical time (and epoch).
		p.block(t)
	}
}

// tryPop removes one task from queue q: LIFO from the local end for the
// owner, FIFO from the steal end for thieves. The executor's clock
// advances to the task's push time (its true dependence).
func (t *TaskQueues) tryPop(p *Proc, q int, local bool) (int, bool) {
	p.c.Locks++
	p.syncAcquire(t.qEpoch[q])
	p.Instr(lockOpCost)
	head := t.heads.Get(p, q*t.pad())
	tail := t.tails.Get(p, q*t.pad())
	if head == tail {
		// Empty probe: nothing was written, so there is no dependence to
		// publish — skipping the release spares a buffer flush and epoch
		// advance on every failed steal probe. The probe's own reads stay
		// buffered until the prober's next synchronization point, which
		// is legal (it published nothing for others to acquire).
		return 0, false
	}
	var slot int
	if local {
		tail--
		slot = tail % t.capacity
		t.tails.Set(p, q*t.pad(), tail)
	} else {
		slot = head % t.capacity
		t.heads.Set(p, q*t.pad(), head+1)
	}
	task := t.slots[q].Get(p, slot)
	p.wait(uint64(t.stamps[q].Get(p, slot)))
	if e := p.syncRelease(); e > t.qEpoch[q] {
		t.qEpoch[q] = e
	}
	return task, true
}

// Outstanding returns the number of pushed-but-not-Done tasks (tests).
func (t *TaskQueues) Outstanding() int64 { return t.outstanding }
