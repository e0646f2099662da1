package runner

import (
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// newLeasedCache opens a cache with leases enabled at a test-friendly
// TTL. Each call gets its own manager (own owner nonce), so two caches
// on one directory model two processes.
func newLeasedCache(t *testing.T, dir string, ttl time.Duration) *Cache {
	t.Helper()
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	c.EnableLeases(ttl)
	return c
}

// TestLeaseCoalescesTwoRunners is the acceptance property: two runners
// (standing in for two processes) sharing a cold cache execute an
// expensive job once. The loser adopts the winner's stored result.
func TestLeaseCoalescesTwoRunners(t *testing.T) {
	dir := t.TempDir()
	var executions atomic.Int64
	runJob := func(ctx context.Context) (int, error) {
		executions.Add(1)
		time.Sleep(300 * time.Millisecond)
		return 77, nil
	}
	key := KeyOf("test", "lease-coalesce")

	runners := []*Runner{
		New(Options{Cache: newLeasedCache(t, dir, time.Second)}),
		New(Options{Cache: newLeasedCache(t, dir, time.Second)}),
	}
	var wg sync.WaitGroup
	results := make([]int, len(runners))
	for i, r := range runners {
		wg.Add(1)
		go func(i int, r *Runner) {
			defer wg.Done()
			g := r.NewGraph()
			j := Submit(g, Spec{Label: "expensive", Key: key}, runJob)
			if err := g.Wait(context.Background()); err != nil {
				t.Errorf("runner %d: %v", i, err)
				return
			}
			results[i], _ = j.Result()
		}(i, r)
	}
	wg.Wait()

	if n := executions.Load(); n != 1 {
		t.Fatalf("job executed %d times across two runners, want 1", n)
	}
	for i, v := range results {
		if v != 77 {
			t.Errorf("runner %d got %d, want 77", i, v)
		}
	}
	var acquired, shared int64
	for _, r := range runners {
		c := r.Counts()
		acquired += c.LeaseAcquired
		shared += c.LeaseShared
	}
	if acquired != 1 || shared != 1 {
		t.Errorf("lease counters: acquired=%d shared=%d, want 1/1", acquired, shared)
	}
	// The handoff must leave no lease behind.
	leases, _ := filepath.Glob(filepath.Join(dir, "*", "*.lease"))
	if len(leases) != 0 {
		t.Errorf("leaked leases after clean handoff: %v", leases)
	}
}

// TestLeaseWonAfterStoreServesEntry: a runner whose resolve missed a key
// and which wins the key's lease only after another runner stored the
// result and released serves the stored entry instead of executing again.
// The graph's first job holds the runner between its resolve and the
// contended job's lease: its body runs the other runner's whole graph.
func TestLeaseWonAfterStoreServesEntry(t *testing.T) {
	dir := t.TempDir()
	key := KeyOf("test", "lease-after-store")
	var executions atomic.Int64
	contended := func(context.Context) (int, error) {
		executions.Add(1)
		return 77, nil
	}
	first := New(Options{Cache: newLeasedCache(t, dir, time.Second)})
	second := New(Options{Cache: newLeasedCache(t, dir, time.Second)})

	g := second.NewGraph()
	hold := Submit(g, Spec{Label: "hold", Key: KeyOf("test", "hold")}, func(ctx context.Context) (int, error) {
		g1 := first.NewGraph()
		Submit(g1, Spec{Label: "contended", Key: key}, contended)
		return 0, g1.Wait(ctx)
	})
	j := Submit(g, Spec{Label: "contended", Key: key, Deps: []Handle{hold}}, contended)
	if err := g.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if v, err := j.Result(); err != nil || v != 77 {
		t.Fatalf("result %d, %v", v, err)
	}
	if n := executions.Load(); n != 1 {
		t.Fatalf("contended job executed %d times, want 1", n)
	}
	if c := second.Counts(); c.LeaseShared != 1 || c.LeaseAcquired != 1 || c.Executed != 1 {
		t.Errorf("second runner: shared=%d acquired=%d executed=%d, want 1 (the stored entry), 1 and 1 (hold)", c.LeaseShared, c.LeaseAcquired, c.Executed)
	}
	if leases, _ := filepath.Glob(filepath.Join(dir, "*", "*.lease")); len(leases) != 0 {
		t.Errorf("leaked leases: %v", leases)
	}
}

// writeStaleLease plants a lease file whose mtime is past the TTL, as a
// crashed process would leave it.
func writeStaleLease(t *testing.T, l *leases, k Key, age time.Duration) string {
	t.Helper()
	path := l.path(k)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	rec := leaseRecord{Owner: "deadhost:1:aa", PID: 1, Host: "deadhost", Start: time.Now().Add(-age)}
	data, _ := json.Marshal(rec)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-age)
	if err := os.Chtimes(path, old, old); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestLeaseTakeoverRace: many contenders hit one stale lease at once.
// Exactly one may reap it (rename atomicity) and exactly one may win the
// re-acquisition; everyone else must see leaseLost, never an error and
// never a second takeover.
func TestLeaseTakeoverRace(t *testing.T) {
	dir := t.TempDir()
	k := KeyOf("test", "takeover-race")
	var takeovers atomic.Int64

	const contenders = 8
	mgrs := make([]*leases, contenders)
	for i := range mgrs {
		mgrs[i] = newLeases(dir, 100*time.Millisecond)
		mgrs[i].takeovers = func(context.Context, string) { takeovers.Add(1) }
	}
	writeStaleLease(t, mgrs[0], k, time.Minute)

	states := make([]leaseState, contenders)
	releases := make([]func(), contenders)
	var wg sync.WaitGroup
	for i := range mgrs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			states[i], releases[i] = mgrs[i].tryAcquire(context.Background(), k)
		}(i)
	}
	wg.Wait()

	won, lost, errs := 0, 0, 0
	for i, s := range states {
		switch s {
		case leaseWon:
			won++
			defer releases[i]()
		case leaseLost:
			lost++
		case leaseErr:
			errs++
		}
	}
	if won != 1 || errs != 0 {
		t.Fatalf("states: won=%d lost=%d err=%d, want exactly one winner and no errors", won, lost, errs)
	}
	if n := takeovers.Load(); n != 1 {
		t.Errorf("stale lease reaped %d times, want exactly 1", n)
	}
}

// TestLeaseTakeoverStress repeats the takeover race a few hundred times
// on two CPUs: every round plants one expired lease, releases all
// contenders at once and requires exactly one winner, exactly one
// reported takeover, and a directory with no lease or reap file left
// once the winner releases. Rounds are paced by channels only.
func TestLeaseTakeoverStress(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const rounds, contenders = 300, 6
	dir := t.TempDir()
	var takeovers atomic.Int64
	mgrs := make([]*leases, contenders)
	for i := range mgrs {
		mgrs[i] = newLeases(dir, time.Minute)
		mgrs[i].takeovers = func(context.Context, string) { takeovers.Add(1) }
	}

	type outcome struct {
		state   leaseState
		release func()
	}
	for round := 0; round < rounds; round++ {
		k := KeyOf("test", "takeover-stress", round)
		writeStaleLease(t, mgrs[0], k, time.Hour)
		takeovers.Store(0)

		start := make(chan struct{})
		results := make(chan outcome, contenders) // one send per contender
		for _, l := range mgrs {
			go func(l *leases) {
				<-start
				state, release := l.tryAcquire(context.Background(), k)
				results <- outcome{state, release}
			}(l)
		}
		close(start)
		// Winners hold their lease until every contender has reported, so a
		// late contender finds it taken rather than legitimately free.
		var releases []func()
		errs := 0
		for range mgrs {
			switch o := <-results; o.state {
			case leaseWon:
				releases = append(releases, o.release)
			case leaseErr:
				errs++
			}
		}
		for _, release := range releases {
			release()
		}
		if len(releases) != 1 || errs != 0 {
			t.Fatalf("round %d: won=%d err=%d, want exactly one winner and no errors", round, len(releases), errs)
		}
		if n := takeovers.Load(); n != 1 {
			t.Fatalf("round %d: stale lease reaped %d times, want exactly 1", round, n)
		}
		if left, _ := filepath.Glob(filepath.Join(dir, "*", "*")); len(left) != 0 {
			t.Fatalf("round %d: files left behind: %v", round, left)
		}
	}
}

// TestLeaseReapLockAbandoned: a reaper killed while holding the reap
// lock must not wedge the key — the first contender to find the expired
// lock clears it, and the next probe takes the stale lease over.
func TestLeaseReapLockAbandoned(t *testing.T) {
	l := newLeases(t.TempDir(), 100*time.Millisecond)
	path := writeStaleLease(t, l, KeyOf("test", "reap-lock-abandoned"), time.Minute)
	lock := path + ".reap-lock"
	if err := os.WriteFile(lock, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if l.reapIfStale(context.Background(), path) {
		t.Fatal("reaped past a live reap lock")
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("lease disturbed while the reap lock was held: %v", err)
	}
	old := time.Now().Add(-time.Minute)
	if err := os.Chtimes(lock, old, old); err != nil {
		t.Fatal(err)
	}
	if l.reapIfStale(context.Background(), path) {
		t.Fatal("the contender that clears an abandoned lock must re-probe, not reap")
	}
	if !l.reapIfStale(context.Background(), path) {
		t.Fatal("stale lease not taken over after its abandoned reap lock was cleared")
	}
	if left, _ := filepath.Glob(path + "*"); len(left) != 0 {
		t.Fatalf("files left behind: %v", left)
	}
}

// TestLeaseHeartbeatKeepsLeaseFresh: a held lease outliving its TTL must
// not look stale — the heartbeat bumps its mtime.
func TestLeaseHeartbeatKeepsLeaseFresh(t *testing.T) {
	dir := t.TempDir()
	l := newLeases(dir, 200*time.Millisecond)
	k := KeyOf("test", "heartbeat")
	state, release := l.tryAcquire(context.Background(), k)
	if state != leaseWon {
		t.Fatalf("tryAcquire = %v, want leaseWon", state)
	}
	defer release()

	time.Sleep(500 * time.Millisecond) // 2.5 TTLs
	st, err := os.Stat(l.path(k))
	if err != nil {
		t.Fatalf("lease vanished while held: %v", err)
	}
	if age := time.Since(st.ModTime()); age > l.ttl {
		t.Errorf("held lease looks stale (age %v > ttl %v); heartbeat not running", age, l.ttl)
	}
	if l.reapIfStale(context.Background(), l.path(k)) {
		t.Error("contender reaped a heartbeating lease")
	}
}

// TestLeaseReleaseRespectsTakeover: releasing after a contender took the
// lease over must not remove the contender's lease.
func TestLeaseReleaseRespectsTakeover(t *testing.T) {
	dir := t.TempDir()
	a := newLeases(dir, time.Hour)
	k := KeyOf("test", "release-owner")
	path := a.path(k)
	state, release := a.tryAcquire(context.Background(), k)
	if state != leaseWon {
		t.Fatalf("tryAcquire = %v, want leaseWon", state)
	}

	// Simulate a takeover: replace the record with another owner's.
	rec := leaseRecord{Owner: "otherhost:9:bb", PID: 9, Host: "otherhost", Start: time.Now()}
	data, _ := json.Marshal(rec)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	release()
	if _, err := os.Stat(path); err != nil {
		t.Error("release removed a lease it no longer owned")
	}
	os.Remove(path)
}

// TestLeaseWaitWinnerVanished: a waiting loser whose winner removed its
// lease without storing must re-contend (ok=false), not wait forever.
func TestLeaseWaitWinnerVanished(t *testing.T) {
	dir := t.TempDir()
	c := newLeasedCache(t, dir, time.Hour)
	l := c.leaseManager()
	k := KeyOf("test", "winner-vanished")
	// No lease on disk at all: wait must return immediately-ish.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_, ok, err := l.wait(ctx, k, func() (any, bool) { return c.Get(ctx, k, decodeInt) })
	if err != nil || ok {
		t.Fatalf("wait = ok=%v err=%v, want re-contend (false, nil)", ok, err)
	}
}

// TestLeaseWaitReapsStaleWinner: a waiter polling a dead winner's lease
// takes it over after the TTL instead of deadlocking on it.
func TestLeaseWaitReapsStaleWinner(t *testing.T) {
	dir := t.TempDir()
	c := newLeasedCache(t, dir, 100*time.Millisecond)
	l := c.leaseManager()
	k := KeyOf("test", "stale-winner")
	writeStaleLease(t, l, k, time.Minute)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_, ok, err := l.wait(ctx, k, func() (any, bool) { return c.Get(ctx, k, decodeInt) })
	if err != nil || ok {
		t.Fatalf("wait = ok=%v err=%v, want takeover re-contend (false, nil)", ok, err)
	}
	if _, err := os.Stat(l.path(k)); !os.IsNotExist(err) {
		t.Error("stale lease still present after wait's takeover")
	}
}

// TestLeaseWaitHonoursContext: a cancelled waiter returns the context
// error instead of polling on.
func TestLeaseWaitHonoursContext(t *testing.T) {
	dir := t.TempDir()
	c := newLeasedCache(t, dir, time.Hour)
	l := c.leaseManager()
	k := KeyOf("test", "wait-ctx")
	// A live (fresh) foreign lease, never released.
	other := newLeases(dir, time.Hour)
	if state, _ := other.tryAcquire(context.Background(), k); state != leaseWon {
		t.Fatal("setup: other manager could not acquire")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	_, ok, err := l.wait(ctx, k, func() (any, bool) { return c.Get(ctx, k, decodeInt) })
	if ok || err == nil {
		t.Fatalf("wait = ok=%v err=%v, want context error", ok, err)
	}
}

// deadPID returns the pid of a process that has definitely exited: the
// test binary itself, re-run with no tests selected.
func deadPID(t *testing.T) int {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Skip("no executable path:", err)
	}
	cmd := exec.Command(exe, "-test.run=^$")
	if err := cmd.Run(); err != nil {
		t.Skip("cannot re-exec test binary:", err)
	}
	return cmd.Process.Pid
}

// TestSweepCrashed: an explicit resume sweep reclaims expired leases,
// same-host dead-owner leases and temp files, while leaving a live
// owner's fresh lease alone.
func TestSweepCrashed(t *testing.T) {
	dir := t.TempDir()
	c := newLeasedCache(t, dir, time.Hour)
	l := c.leaseManager()

	stale := writeStaleLease(t, l, KeyOf("test", "sweep-stale"), 2*time.Hour)

	host, _ := os.Hostname()
	deadKey := KeyOf("test", "sweep-dead-pid")
	deadPath := l.path(deadKey)
	os.MkdirAll(filepath.Dir(deadPath), 0o755)
	rec := leaseRecord{Owner: "x", PID: deadPID(t), Host: host, Start: time.Now()}
	data, _ := json.Marshal(rec)
	if err := os.WriteFile(deadPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	liveKey := KeyOf("test", "sweep-live")
	if state, _ := l.tryAcquire(context.Background(), liveKey); state != leaseWon {
		t.Fatal("setup: could not acquire live lease")
	}
	livePath := l.path(liveKey)

	tmp := filepath.Join(dir, "ab", ".tmp-orphan")
	os.MkdirAll(filepath.Dir(tmp), 0o755)
	if err := os.WriteFile(tmp, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}

	removed := c.SweepCrashed(time.Hour)
	got := strings.Join(removed, "\n")
	for _, want := range []string{stale, deadPath, tmp} {
		if !strings.Contains(got, want) {
			t.Errorf("sweep did not reclaim %s (removed: %v)", want, removed)
		}
	}
	if _, err := os.Stat(livePath); err != nil {
		t.Errorf("sweep removed a live owner's lease: %v", err)
	}
}

// TestCachePutObstructedPaths: Put must fail loudly (and leave no
// debris) when the entry's path is physically blocked. Unlike the
// permission-based test below, obstructions bind even under root.
func TestCachePutObstructedPaths(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	k := KeyOf("test", "put-obstructed")
	path := c.path(k)

	// A regular file where the shard directory belongs: MkdirAll fails.
	shard := filepath.Dir(path)
	if err := os.WriteFile(shard, []byte("in the way"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(context.Background(), k, []byte("1")); err == nil {
		t.Error("Put with a file blocking the shard dir succeeded")
	}
	os.Remove(shard)

	// A directory where the entry belongs: the final rename fails.
	if err := os.MkdirAll(path, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(context.Background(), k, []byte("1")); err == nil {
		t.Error("Put with a directory blocking the entry succeeded")
	}
	os.Remove(path)

	// Neither failure may leak temp files, and a clean Put recovers.
	tmps, _ := filepath.Glob(filepath.Join(dir, "*", ".tmp-*"))
	if len(tmps) != 0 {
		t.Errorf("obstructed Puts leaked temp files: %v", tmps)
	}
	if err := c.Put(context.Background(), k, []byte("4")); err != nil {
		t.Fatalf("Put after obstructions cleared: %v", err)
	}
	if v, ok := c.Get(context.Background(), k, decodeInt); !ok || v.(int) != 4 {
		t.Fatalf("Get after recovery = %v, %v", v, ok)
	}
}

// TestCachePutErrorPaths: Put must fail loudly (and leave no debris)
// when the cache directory cannot be written.
func TestCachePutErrorPaths(t *testing.T) {
	if os.Geteuid() == 0 {
		t.Skip("running as root; directory permissions are not enforced")
	}
	dir := t.TempDir()
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	k := KeyOf("test", "put-error")

	// Read-only cache root: the shard mkdir fails.
	if err := os.Chmod(dir, 0o555); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chmod(dir, 0o755) })
	if err := c.Put(context.Background(), k, []byte("1")); err == nil {
		t.Error("Put into a read-only cache dir succeeded")
	}
	os.Chmod(dir, 0o755)

	// Shard dir exists but is read-only: the temp create fails.
	shard := filepath.Dir(c.path(k))
	if err := os.MkdirAll(shard, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.Chmod(shard, 0o555); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chmod(shard, 0o755) })
	if err := c.Put(context.Background(), k, []byte("1")); err == nil {
		t.Error("Put into a read-only shard dir succeeded")
	}
	os.Chmod(shard, 0o755)

	// The failed Puts must not have leaked temp files.
	tmps, _ := filepath.Glob(filepath.Join(dir, "*", ".tmp-*"))
	if len(tmps) != 0 {
		t.Errorf("failed Puts leaked temp files: %v", tmps)
	}

	// And a clean Put still works afterwards.
	if err := c.Put(context.Background(), k, []byte("9")); err != nil {
		t.Fatalf("Put after recovery: %v", err)
	}
	if v, ok := c.Get(context.Background(), k, decodeInt); !ok || v.(int) != 9 {
		t.Fatalf("Get after recovery = %v, %v", v, ok)
	}
}
