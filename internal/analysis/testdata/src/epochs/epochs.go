// Package epochs seeds violations of the release→acquire epoch
// publication order: a waiter-waking call (sync.Cond Broadcast/Signal,
// a scheduler wake, or the Unlock paired with a release-time store)
// reached on a path with no prior epoch publication. The shapes mirror
// internal/mach's Flag.Set and Lock.Release.
package epochs

import "sync"

type proc struct{ epoch uint64 }

// syncRelease mirrors mach.Proc.syncRelease: flush the reference
// buffer, bump and return the epoch.
func (p *proc) syncRelease() uint64 {
	p.epoch++
	return p.epoch
}

// wake mirrors mach.Proc.wake: it makes the processors blocked on on
// runnable in the published epoch.
func (p *proc) wake(on any, epoch uint64) {}

// The scheduler shape of Flag.Set: no mutex, the wake is the edge.
type schedFlag struct {
	set      bool
	setEpoch uint64
}

func (f *schedFlag) setOK(p *proc) {
	if f.set {
		return
	}
	f.set = true
	f.setEpoch = p.syncRelease()
	p.wake(f, f.setEpoch)
}

func (f *schedFlag) wakeBeforePublish(p *proc) {
	f.set = true
	p.wake(f, f.setEpoch) // want epochs
	f.setEpoch = p.syncRelease()
}

type flag struct {
	mu       sync.Mutex
	cv       *sync.Cond
	set      bool
	setEpoch uint64
}

func (f *flag) setOK(p *proc) {
	f.mu.Lock()
	f.set = true
	f.setEpoch = p.syncRelease()
	f.cv.Broadcast()
	f.mu.Unlock()
}

func (f *flag) setBeforePublish(p *proc) {
	f.mu.Lock()
	f.set = true
	f.cv.Broadcast() // want epochs
	f.setEpoch = p.syncRelease()
	f.mu.Unlock()
}

func (f *flag) publishSkippedOnOnePath(p *proc, fast bool) {
	f.mu.Lock()
	f.set = true
	if !fast {
		f.setEpoch = p.syncRelease()
	}
	f.cv.Broadcast() // want epochs
	f.mu.Unlock()
}

func (f *flag) signalOK(p *proc) {
	f.mu.Lock()
	_ = p.syncRelease()
	f.cv.Signal()
	f.mu.Unlock()
}

type lock struct {
	mu           sync.Mutex
	lastRelease  uint64
	releaseEpoch uint64
}

// The Lock.Release shape: a release-time store makes the Unlock the
// edge waiters observe, so the epoch must be published before it.
func (l *lock) releaseOK(p *proc, now uint64) {
	l.mu.Lock()
	l.lastRelease = now
	l.releaseEpoch = p.syncRelease()
	l.mu.Unlock()
}

func (l *lock) releaseUnpublished(p *proc, now uint64) {
	l.mu.Lock()
	l.lastRelease = now
	l.mu.Unlock() // want epochs
}

// No release-time store: a plain critical section's Unlock is not a
// sync edge the recorder orders, so nothing is required before it.
func (l *lock) plainCriticalSection(xs []uint64) {
	l.mu.Lock()
	xs[0]++
	l.mu.Unlock()
}

func (f *flag) suppressed(p *proc) {
	f.mu.Lock()
	f.set = true
	//splash:allow epochs fixture: no recorder attached to this primitive
	f.cv.Broadcast()
	f.mu.Unlock()
}
