package runner

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"splash2/internal/fault"
)

// Cross-process work leases.
//
// Two processes sharing a cache directory (a splashd fleet, or a daemon
// plus an operator's ad-hoc characterize run) race to execute the same
// cold experiments. In-process the singleflight memo deduplicates them;
// across processes nothing did, so every daemon paid for every cold
// sweep. Leases extend the coalescing across the process boundary with
// nothing but the filesystem:
//
//   - A job's lease lives next to its cache entry:
//     <dir>/<key[:2]>/<key[2:]>.lease. Acquisition is O_CREATE|O_EXCL —
//     atomic on every filesystem Go supports — so exactly one process
//     wins a cold key.
//   - The winner heartbeats the lease by bumping its mtime every TTL/4
//     while the job runs, writes the result into the cache, then removes
//     the lease. Losers poll: a cache hit ends the wait; a lease whose
//     mtime is older than the TTL belongs to a dead process and is taken
//     over.
//   - Takeover must not double-fire: one contender at a time (an
//     O_EXCL reap lock beside the lease) judges the lease expired,
//     os.Renames it aside and deletes it, then re-enters acquisition;
//     see reapIfStale. A lease can therefore be reclaimed at most once
//     per expiry, and a kill -9'd winner (or reaper) delays its key by
//     at most one TTL each — it can never deadlock the fleet.
//
// The protocol is advisory and best-effort by design: any lease-layer
// I/O error degrades to "run the job locally", which costs duplicated
// work, never correctness — results are content-addressed, so two
// processes computing the same key store identical bytes.

// DefaultLeaseTTL is the lease expiry used when EnableLeases is given a
// non-positive TTL. It must comfortably exceed the heartbeat interval
// (TTL/4) under a loaded scheduler, and it bounds how long a crashed
// winner can delay contenders on one key.
const DefaultLeaseTTL = 10 * time.Second

// leaseState says how an acquisition attempt ended.
type leaseState int

const (
	// leaseWon: this process holds the lease and must run the job.
	leaseWon leaseState = iota
	// leaseLost: another live process holds the lease.
	leaseLost
	// leaseErr: the lease layer itself failed; run the job locally.
	leaseErr
)

// leaseRecord is the lease file's JSON payload — forensics for `ls`, the
// journal, and the same-owner check on release. Liveness is carried by
// the file's mtime (heartbeat), not by the payload.
type leaseRecord struct {
	Owner string    `json:"owner"` // host:pid:nonce
	PID   int       `json:"pid"`
	Host  string    `json:"host"`
	Start time.Time `json:"start"`
}

// leases is the per-cache lease manager.
type leases struct {
	dir   string
	ttl   time.Duration
	owner string // host:pid:nonce, unique per Cache instance
	inj   *fault.Injector

	// takeovers observes reclaimed stale leases (runner counter +
	// journal); the context is the request whose contention discovered
	// the stale lease, the argument the reclaimed key's hex string.
	takeovers func(ctx context.Context, key string)
}

// newLeases builds a lease manager rooted at the cache directory.
func newLeases(dir string, ttl time.Duration) *leases {
	if ttl <= 0 {
		ttl = DefaultLeaseTTL
	}
	host, _ := os.Hostname()
	if host == "" {
		host = "unknown"
	}
	var nb [6]byte
	rand.Read(nb[:])
	return &leases{
		dir:   dir,
		ttl:   ttl,
		owner: fmt.Sprintf("%s:%d:%s", host, os.Getpid(), hex.EncodeToString(nb[:])),
	}
}

// path returns the lease file for a key, sharded like the cache entry it
// guards.
func (l *leases) path(k Key) string {
	hx := k.String()
	return filepath.Join(l.dir, hx[:2], hx[2:]+".lease")
}

// tryAcquire attempts to take the lease for k. On leaseWon the caller
// owns the lease and must Release it; a heartbeat goroutine (stopped by
// the returned func) keeps the mtime fresh meanwhile. On leaseLost a
// live owner exists elsewhere. leaseErr means the lease layer is broken
// (unwritable dir, injected fault): callers fall back to local execution.
func (l *leases) tryAcquire(ctx context.Context, k Key) (leaseState, func()) {
	path := l.path(k)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return leaseErr, nil
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		if os.IsExist(err) {
			if l.reapIfStale(ctx, path) {
				// The stale holder is gone and we removed its lease;
				// immediately re-contend. Another process may win the
				// re-race — that's fine, they're live.
				f, err = os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
				if err != nil {
					return leaseLost, nil
				}
			} else {
				return leaseLost, nil
			}
		} else {
			return leaseErr, nil
		}
	}
	rec := leaseRecord{Owner: l.owner, PID: os.Getpid(), Start: time.Now()}
	if h, _ := os.Hostname(); h != "" {
		rec.Host = h
	}
	data, _ := json.Marshal(rec)
	_, werr := f.Write(data)
	cerr := f.Close()
	if werr != nil || cerr != nil {
		os.Remove(path)
		return leaseErr, nil
	}
	// The lease exists and is ours. A crash injected here (after the
	// durable acquisition, before any work) is the nastiest point for
	// contenders: they must take the dead lease over, not wait forever.
	if err := l.inj.Do(ctx, "lease.acquire:"+k.String()); err != nil {
		os.Remove(path)
		return leaseErr, nil
	}
	stop := l.heartbeat(path)
	return leaseWon, func() {
		stop()
		l.release(path)
	}
}

// heartbeat bumps the lease's mtime every ttl/4 until stopped, so a live
// owner's lease never looks stale no matter how long the job runs.
func (l *leases) heartbeat(path string) (stop func()) {
	done := make(chan struct{})
	go func() {
		t := time.NewTicker(l.ttl / 4)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				now := time.Now()
				os.Chtimes(path, now, now)
			}
		}
	}()
	var once sync.Once
	return func() { once.Do(func() { close(done) }) }
}

// release removes the lease if this process still owns it. Ownership can
// have moved: if we stalled past the TTL a contender legitimately took
// the lease over, and removing *their* lease would let a third process
// double-run the job.
func (l *leases) release(path string) {
	data, err := os.ReadFile(path)
	if err != nil {
		return // already reaped
	}
	var rec leaseRecord
	if json.Unmarshal(data, &rec) == nil && rec.Owner != l.owner {
		return // taken over; not ours to remove
	}
	os.Remove(path)
}

// reapIfStale takes over the lease at path if it has expired. Returns
// true only for the one caller that actually removed the stale lease.
//
// Judging a lease stale and renaming it aside are two system calls, and
// a rename captures whatever sits at path when it runs: a contender
// that stat'ed the dead lease can be overtaken by one that reaps it and
// re-acquires, and would then carry off the winner's fresh lease. So
// reaping is serialised by an O_EXCL lock file next to the lease —
// under it a stale verdict stays true until the holder acts on it, and
// path is only ever vacated for a lease that really expired. A reaper
// killed inside the lock delays takeover by one more TTL: a lock that
// old is abandoned, and whoever finds it clears it for the next probe.
// Clearing can itself race a fresh lock, so the rename to a unique reap
// name stays (exactly one contender captures any given file) and the
// capturer judges the file it actually holds; a live one goes back.
func (l *leases) reapIfStale(ctx context.Context, path string) bool {
	if !l.stale(path) {
		return false // fresh, or gone already — someone else reaped
	}
	lock := path + ".reap-lock"
	f, err := os.OpenFile(lock, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		if l.stale(lock) {
			os.Remove(lock)
		}
		return false // another contender is reaping
	}
	defer os.Remove(lock)
	if f.Close() != nil {
		return false
	}
	if !l.stale(path) {
		return false // reaped (and perhaps re-acquired) before we got the lock
	}
	var nb [6]byte
	rand.Read(nb[:])
	reap := path + ".reap-" + hex.EncodeToString(nb[:])
	if err := os.Rename(path, reap); err != nil {
		return false
	}
	if !l.stale(reap) {
		// Captured a live lease after all (see above, or its stalled owner
		// just heartbeat). Link, unlike Rename, refuses to replace a lease
		// acquired while path was briefly free; then the captured owner
		// runs unleased, which costs duplicated work, never correctness.
		os.Link(reap, path)
		os.Remove(reap)
		return false
	}
	os.Remove(reap)
	if l.takeovers != nil {
		// Reassemble the key from the sharded lease path:
		// <dir>/<key[:2]>/<key[2:]>.lease.
		base := strings.TrimSuffix(filepath.Base(path), ".lease")
		l.takeovers(ctx, filepath.Base(filepath.Dir(path))+base)
	}
	return true
}

// stale reports whether the lease file at path exists and its last
// heartbeat (mtime) is older than the TTL.
func (l *leases) stale(path string) bool {
	st, err := os.Stat(path)
	return err == nil && time.Since(st.ModTime()) > l.ttl
}

// ownerDead reports whether the lease file at path names a dead process
// on host, or cannot be parsed (then nobody can release it). A file that
// cannot be read is left for a later sweep.
func ownerDead(path, host string) bool {
	data, err := os.ReadFile(path)
	if err != nil {
		return false
	}
	var rec leaseRecord
	if json.Unmarshal(data, &rec) != nil {
		return true
	}
	return rec.Host == host && rec.PID > 0 && !pidAlive(rec.PID)
}

// pidAlive reports whether pid is a live process on this host, via
// signal 0. Conservative: only a definitive "no such process" counts as
// dead — permission errors and platforms without signal support count
// as alive, so a sweep can never kill a live owner's lease.
func pidAlive(pid int) bool {
	p, err := os.FindProcess(pid)
	if err != nil {
		return false
	}
	err = p.Signal(syscall.Signal(0))
	if err == nil {
		return true
	}
	return !errors.Is(err, os.ErrProcessDone) && !errors.Is(err, syscall.ESRCH)
}

// waitInterval is how often a losing contender re-probes the cache and
// the winner's lease. Short enough that cross-process handoff latency is
// invisible next to experiment runtimes, long enough to keep the wait
// loop's stat/read traffic trivial.
const waitInterval = 25 * time.Millisecond

// wait blocks until the winner's result is stored — load, polled, serves
// it — the lease disappears or goes stale (returning ok=false so the
// caller re-contends), or ctx expires (returning ctx.Err()).
func (l *leases) wait(ctx context.Context, k Key, load func() (any, bool)) (v any, ok bool, err error) {
	path := l.path(k)
	t := time.NewTicker(waitInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return nil, false, ctx.Err()
		case <-t.C:
		}
		if v, ok := load(); ok {
			return v, true, nil
		}
		st, err := os.Stat(path)
		if err != nil {
			// Lease gone but no cache entry: the winner failed (or
			// chose not to store). Re-contend and run it ourselves.
			return nil, false, nil
		}
		if time.Since(st.ModTime()) > l.ttl {
			if l.reapIfStale(ctx, path) {
				return nil, false, nil
			}
			// Lost the reap race; the reaper is live and about to
			// re-acquire. Keep waiting on the fresh lease.
		}
	}
}
