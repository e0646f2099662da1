package mach

// Every operation below runs under the machine's baton (sched.go). One
// whose outcome depends on order first yields to any logically earlier
// runnable processor, and a processor that must wait blocks until the
// releasing operation wakes it.

// Barrier is a reusable all-processor barrier with PRAM time semantics:
// every participant leaves with its clock advanced to the maximum arrival
// clock, and the difference is accounted as synchronization wait time.
//
// A barrier is also a full release→acquire edge for batched reference
// capture: every participant flushes its buffer on arrival, and all
// depart in a fresh synchronization epoch strictly above every
// arrival epoch, so recorded pre-barrier events merge before recorded
// post-barrier events.
type Barrier struct {
	n int

	arrived  int
	maxTime  uint64
	maxEpoch uint64
}

// NewBarrier returns a barrier for all processors of the machine.
func (m *Machine) NewBarrier() *Barrier { return NewBarrier(m.Procs()) }

// NewBarrier returns a barrier for n participants. A barrier for zero
// (or fewer) participants is unusable — Wait could never release — so
// misuse panics immediately rather than deadlocking the first waiter.
func NewBarrier(n int) *Barrier {
	if n <= 0 {
		panic("mach: barrier needs at least one participant")
	}
	return &Barrier{n: n}
}

// Wait blocks until all n participants have arrived.
func (b *Barrier) Wait(p *Proc) { b.wait(p, nil) }

// wait implements Wait; when onRelease is non-nil the last arriver invokes
// it with the release time and release epoch while every other participant
// is still blocked — the point for global actions like measurement resets
// (Machine.Epoch). The others join the release time only after it returns.
func (b *Barrier) wait(p *Proc, onRelease func(releaseTime, releaseEpoch uint64)) {
	p.c.Barriers++
	if e := p.syncRelease(); e > b.maxEpoch {
		b.maxEpoch = e
	}
	if p.time > b.maxTime {
		b.maxTime = p.time
	}
	b.arrived++
	if b.arrived < b.n {
		p.block(b) // woken at the release time, in the release epoch
		return
	}
	release, releaseEpoch := b.maxTime, b.maxEpoch+1
	b.arrived, b.maxTime, b.maxEpoch = 0, 0, 0
	p.wait(release)
	p.syncAcquire(releaseEpoch - 1)
	if onRelease != nil {
		onRelease(release, releaseEpoch)
	}
	p.wake(b, release, releaseEpoch-1)
}

// Lock is a mutual-exclusion lock with PRAM serialization: an acquirer
// whose clock is behind the previous critical section's release time is
// delayed (and the delay accounted as sync wait), so lock contention shows
// up as serialization exactly as in the paper's speedup model. The zero
// value is an unlocked Lock.
//
// Contending processors acquire in request order: an acquirer first
// yields to every logically earlier runnable processor, and a release
// wakes its waiters at the clocks they requested at, so the earliest
// retries first. A release→acquire pair is an epoch edge for batched
// capture, so recordings of lock-ordered programs are byte-stable too
// (see internal/README.md).
type Lock struct {
	held        bool
	lastRelease uint64
	lastEpoch   uint64
}

// Acquire takes the lock.
func (l *Lock) Acquire(p *Proc) {
	p.yield()
	p.c.Locks++
	for l.held {
		p.block(l)
	}
	l.held = true
	p.wait(l.lastRelease)
	p.syncAcquire(l.lastEpoch)
}

// Release drops the lock, publishing the releaser's clock.
func (l *Lock) Release(p *Proc) {
	if p.time > l.lastRelease {
		l.lastRelease = p.time
	}
	if e := p.syncRelease(); e > l.lastEpoch {
		l.lastEpoch = e
	}
	l.held = false
	// Waiters keep their request clocks (join clock 0, epoch 0): each
	// joins the release time and epoch in Acquire once it holds the lock.
	p.wake(l, 0, 0)
}

// Flag is a one-shot flag ("pause" in SPLASH-2 terminology): waiters block
// until some processor sets it, and leave with their clocks advanced to
// the setter's clock. The zero value is an unset Flag.
//
// For batched reference capture a Flag is a release→acquire edge from
// the *first* setter to every waiter: Set on an already-set flag is a
// no-op and publishes neither time nor epoch, so a second setter's
// buffered references are not ordered before the waiters. Flags
// therefore assume a single setter for epoch/ordering purposes — the
// SPLASH-2 "pause" idiom — and a second setter's events merge only at
// its own next synchronization point.
type Flag struct {
	set      bool
	setTime  uint64
	setEpoch uint64
}

// MakeFlags allocates n flags (e.g. one per block column in Cholesky).
func MakeFlags(n int) []Flag { return make([]Flag, n) }

// Set raises the flag, waking all waiters. Setting twice is a no-op.
func (f *Flag) Set(p *Proc) {
	p.yield()
	if f.set {
		return
	}
	f.set = true
	f.setTime = p.time
	f.setEpoch = p.syncRelease()
	p.wake(f, f.setTime, f.setEpoch)
}

// Wait blocks until the flag is set, accounting the wait as a pause.
func (f *Flag) Wait(p *Proc) {
	p.yield()
	p.c.Pauses++
	if !f.set {
		p.block(f)
	}
	p.wait(f.setTime)
	p.syncAcquire(f.setEpoch)
}

// IsSet reports whether the flag has been raised (no time accounting).
func (f *Flag) IsSet() bool { return f.set }
