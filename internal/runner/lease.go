package runner

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"time"

	"splash2/internal/fault"
)

// Cross-process work leases.
//
// Two processes sharing a cache directory (a splashd fleet, or a daemon
// plus an operator's ad-hoc characterize run) race to execute the same
// cold experiments. In-process the singleflight memo deduplicates them;
// across processes a lease does:
//
//   - A job's lease is an exclusive flock on
//     <dir>/<key[:2]>/<key[2:]>.lease, next to the cache entry it
//     guards. The kernel grants it to one open file at a time and drops
//     it when its holder's process dies, however it dies, so the next
//     contender wins at once.
//   - The winner runs the job, stores the result, then removes the file
//     while still holding the lock, and closes it. A contender that had
//     the old file open may lock it after that; its path is gone (or
//     names a newer file), so the attempt counts as lost.
//   - A loser waits, serves the winner's stored entry once it appears,
//     and otherwise contends again (Graph.runLeased).
//
// The protocol is advisory and best-effort by design: any lease-layer
// I/O error degrades to "run the job locally", and on a filesystem where
// flock does not exclude two processes may both win a key. Either costs
// duplicated work, never correctness — results are content-addressed,
// so two processes computing the same key store identical bytes.

// leaseState says how an acquisition attempt ended.
type leaseState int

const (
	// leaseWon: this process holds the lease and must run the job.
	leaseWon leaseState = iota
	// leaseLost: another holder has the lease, or had it until just now.
	leaseLost
	// leaseErr: the lease layer itself failed; run the job locally.
	leaseErr
)

// leases is the per-cache lease manager.
type leases struct {
	dir string
	inj *fault.Injector
}

// path returns the lease file for a key, sharded like the cache entry it
// guards.
func (l *leases) path(k Key) string {
	hx := k.String()
	return filepath.Join(l.dir, hx[:2], hx[2:]+".lease")
}

// tryAcquire attempts to take the lease for k. On leaseWon the caller
// holds the lease and must call the returned release. On leaseLost
// another open file holds it. leaseErr means the lease layer is broken
// (unwritable dir, injected fault): callers fall back to local execution.
func (l *leases) tryAcquire(ctx context.Context, k Key) (leaseState, func()) {
	path := l.path(k)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return leaseErr, nil
	}
	f, err := os.OpenFile(path, os.O_RDONLY|os.O_CREATE, 0o644)
	if err != nil {
		return leaseErr, nil
	}
	if state := lock(f, path); state != leaseWon {
		if f.Close() != nil {
			return leaseErr, nil
		}
		return state, nil
	}
	// A failed Remove or Close leaves at most an unlocked file, which the
	// next contender wins and -resume sweeps.
	release := func() {
		os.Remove(path)
		f.Close()
	}
	// A crash injected here (holding the lock, before any work) is where a
	// dead holder leaves its lease file behind for the next contender.
	if err := l.inj.Do(ctx, "lease.acquire:"+k.String()); err != nil {
		release()
		return leaseErr, nil
	}
	return leaseWon, release
}

// lock takes an exclusive flock on f, the lease (or journal) file
// opened at path, without blocking. It is leaseLost when another open
// file holds the lock, and also when the lock is on a file no longer at
// path: a releasing holder unlinked it after f was opened, so the lock
// guards nothing.
func lock(f *os.File, path string) leaseState {
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		if errors.Is(err, syscall.EWOULDBLOCK) {
			return leaseLost
		}
		return leaseErr
	}
	fi, err := f.Stat()
	if err != nil {
		return leaseErr
	}
	if st, err := os.Stat(path); err != nil || !os.SameFile(fi, st) {
		return leaseLost
	}
	return leaseWon
}

// removeUnlocked removes the file at path — a lease, or any file a live
// run would hold locked — if no live process holds its lock, and reports
// whether it did.
func removeUnlocked(path string) bool {
	f, err := os.Open(path)
	if err != nil {
		return false
	}
	defer f.Close()
	return lock(f, path) == leaseWon && os.Remove(path) == nil
}

// waitInterval is how often a losing contender re-probes the cache and
// the winner's lease. Short enough that cross-process handoff latency is
// invisible next to experiment runtimes, long enough to keep the wait
// loop's traffic trivial.
const waitInterval = 25 * time.Millisecond
