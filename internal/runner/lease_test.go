package runner

import (
	"context"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"splash2/internal/fault"
)

// newLeasedCache opens a cache with leases enabled (EnableLeases ignores
// the duration). Each lease attempt opens the lease file anew, and flock
// excludes two open files of one process as it excludes two processes,
// so two caches on one directory model two processes.
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

// plantDeadLease leaves the lease file of k as a holder that died (or
// closed it without removing it) leaves it: present and unlocked.
func plantDeadLease(t *testing.T, l *leases, k Key) string {
	t.Helper()
	path := l.path(k)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestLeaseTakeoverRace: many contenders hit a dead holder's lease file
// at once. The lock admits exactly one; everyone else must see
// leaseLost, never an error.
func TestLeaseTakeoverRace(t *testing.T) {
	dir := t.TempDir()
	k := KeyOf("test", "takeover-race")
	const contenders = 8
	plantDeadLease(t, &leases{dir: dir}, k)

	states := make([]leaseState, contenders)
	releases := make([]func(), contenders)
	var wg sync.WaitGroup
	for i := range contenders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			states[i], releases[i] = (&leases{dir: dir}).tryAcquire(context.Background(), k)
		}()
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
}

// TestLeaseTakeoverStress repeats the race a few hundred times on two
// CPUs against two kinds of dead holder, alternating: a lease file whose
// holder closed it without removing it, and a holder that releases
// while the contenders are already contending, so some of them lock the
// unlinked file they opened before the release. Each contender retries
// until it wins or sees that another has won. Every round needs exactly
// one winner, no error and, once the winner releases, no file left.
// Rounds are paced by channels only.
func TestLeaseTakeoverStress(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const rounds, contenders = 300, 6
	dir := t.TempDir()
	mgrs := make([]*leases, contenders)
	for i := range mgrs {
		mgrs[i] = &leases{dir: dir}
	}
	holder := &leases{dir: dir}

	type outcome struct {
		state   leaseState
		release func()
	}
	for round := range rounds {
		k := KeyOf("test", "takeover-stress", round)
		start := make(chan struct{})
		if round%2 == 0 {
			plantDeadLease(t, holder, k)
		} else {
			state, release := holder.tryAcquire(context.Background(), k)
			if state != leaseWon {
				t.Fatalf("round %d: holder could not acquire a fresh key", round)
			}
			go func() {
				<-start
				release()
			}()
		}

		var won atomic.Bool
		results := make(chan outcome, contenders) // one send per contender
		for _, l := range mgrs {
			go func() {
				<-start
				for {
					state, release := l.tryAcquire(context.Background(), k)
					if state == leaseWon {
						won.Store(true)
					}
					if state != leaseLost || won.Load() {
						results <- outcome{state, release}
						return
					}
					runtime.Gosched()
				}
			}()
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
		if left, _ := filepath.Glob(filepath.Join(dir, "*", "*")); len(left) != 0 {
			t.Fatalf("round %d: files left behind: %v", round, left)
		}
	}
}

// leasedJob runs one job keyed k on a runner over c and returns its
// value and the runner's counts.
func leasedJob(ctx context.Context, c *Cache, k Key, run func(context.Context) (int, error)) (int, Counts, error) {
	r := New(Options{Cache: c})
	g := r.NewGraph()
	j := Submit(g, Spec{Label: "leased", Key: k}, run)
	if err := g.Wait(ctx); err != nil {
		return 0, r.Counts(), err
	}
	v, err := j.Result()
	return v, r.Counts(), err
}

// TestLeaseWaitWinnerVanished: a loser whose winner releases without
// storing a result contends again and runs the job itself, rather than
// waiting forever.
func TestLeaseWaitWinnerVanished(t *testing.T) {
	dir := t.TempDir()
	c := newLeasedCache(t, dir, 0)
	k := KeyOf("test", "winner-vanished")
	state, release := (&leases{dir: dir}).tryAcquire(context.Background(), k)
	if state != leaseWon {
		t.Fatal("setup: the other holder could not acquire")
	}
	time.AfterFunc(100*time.Millisecond, release)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	v, counts, err := leasedJob(ctx, c, k, func(context.Context) (int, error) { return 7, nil })
	if err != nil || v != 7 {
		t.Fatalf("job = %d, %v; want 7 run locally", v, err)
	}
	if counts.Executed != 1 || counts.LeaseAcquired != 1 || counts.LeaseShared != 0 {
		t.Errorf("counts %+v, want one execution under a won lease", counts)
	}
}

// TestLeaseWaitReapsStaleWinner: a waiter whose winner died mid-job —
// its lock dropped, its lease file left behind — wins the key on its
// next attempt, runs the job and removes the dead winner's file.
func TestLeaseWaitReapsStaleWinner(t *testing.T) {
	dir := t.TempDir()
	c := newLeasedCache(t, dir, 0)
	l := c.leaseManager()
	k := KeyOf("test", "stale-winner")
	// A holder's lock without its release: closing the file drops the
	// lock as the death of its process would, and leaves the file.
	path := plantDeadLease(t, l, k)
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if lock(f, path) != leaseWon {
		t.Fatal("setup: could not lock the planted lease")
	}
	time.AfterFunc(100*time.Millisecond, func() { f.Close() })

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	v, counts, err := leasedJob(ctx, c, k, func(context.Context) (int, error) { return 9, nil })
	if err != nil || v != 9 {
		t.Fatalf("job = %d, %v; want 9 run locally", v, err)
	}
	if counts.LeaseAcquired != 1 {
		t.Errorf("counts %+v, want the key won after its holder died", counts)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Error("dead winner's lease file still present after the job")
	}
}

// TestLeaseWaitHonoursContext: a waiter on a live holder's lease returns
// the context's error when it expires, without running the job.
func TestLeaseWaitHonoursContext(t *testing.T) {
	dir := t.TempDir()
	c := newLeasedCache(t, dir, 0)
	k := KeyOf("test", "wait-ctx")
	state, release := (&leases{dir: dir}).tryAcquire(context.Background(), k)
	if state != leaseWon {
		t.Fatal("setup: the other holder could not acquire")
	}
	defer release()

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	var ran atomic.Bool
	_, counts, err := leasedJob(ctx, c, k, func(context.Context) (int, error) { ran.Store(true); return 0, nil })
	if !errors.Is(err, context.DeadlineExceeded) || ran.Load() || counts.Executed != 0 {
		t.Fatalf("err=%v ran=%v executed=%d, want the deadline and no execution", err, ran.Load(), counts.Executed)
	}
}

const leaseHelperEnv = "SPLASH2_LEASE_HELPER"

// TestLeaseHolderHelper is not a test: it is the child process of
// TestLeaseKill9FreesKey. It dies by SIGKILL at the armed crash point,
// holding the lease of the key the parent then contends for.
func TestLeaseHolderHelper(t *testing.T) {
	dir := os.Getenv(leaseHelperEnv)
	if dir == "" {
		t.Skip("lease holder helper: only runs re-executed")
	}
	rules, err := fault.Parse("crash@1=lease.acquire:*")
	if err != nil {
		t.Fatal(err)
	}
	l := &leases{dir: dir, inj: fault.New(1, rules...)}
	l.tryAcquire(context.Background(), KeyOf("test", "kill9"))
	t.Fatal("the armed crash did not fire")
}

// TestLeaseKill9FreesKey: a process kill -9'd while holding a lease
// leaves its lease file behind, and the next contender wins the key on
// its first attempt: the kernel dropped the lock with the process, so no
// expiry has to pass.
func TestLeaseKill9FreesKey(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Skip("no executable path:", err)
	}
	dir := t.TempDir()
	cmd := exec.Command(exe, "-test.run=^TestLeaseHolderHelper$")
	cmd.Env = append(os.Environ(), leaseHelperEnv+"="+dir)
	out, err := cmd.CombinedOutput()
	if !strings.Contains(string(out), "fault: injected crash at lease.acquire:") {
		t.Fatalf("helper did not die at the crash point (err %v): %s", err, out)
	}
	l := &leases{dir: dir}
	k := KeyOf("test", "kill9")
	if _, err := os.Stat(l.path(k)); err != nil {
		t.Fatalf("the killed holder left no lease file: %v", err)
	}
	state, release := l.tryAcquire(context.Background(), k)
	if state != leaseWon {
		t.Fatalf("first attempt after the holder's death = %v, want leaseWon", state)
	}
	release()
	if _, err := os.Stat(l.path(k)); !os.IsNotExist(err) {
		t.Errorf("lease file left after release: %v", err)
	}
}

// TestSweepCrashed: an explicit resume sweep removes the lease files no
// process holds, every temp file no process holds, including an older
// version's reap leftovers, and an older version's recording sidecars,
// while leaving a live holder's lease and a journal's locked temp file
// alone.
func TestSweepCrashed(t *testing.T) {
	dir := t.TempDir()
	c := newLeasedCache(t, dir, 0)
	l := c.leaseManager()

	dead := plantDeadLease(t, l, KeyOf("test", "sweep-dead"))

	liveKey := KeyOf("test", "sweep-live")
	state, release := l.tryAcquire(context.Background(), liveKey)
	if state != leaseWon {
		t.Fatal("setup: could not acquire live lease")
	}
	defer release()
	livePath := l.path(liveKey)

	var debris []string
	for _, name := range []string{"ab/.tmp-orphan", "ab/cd.lease.reap-lock", "ab/cd.lease.reap-0a1b", "traces/ef.sp2t.json"} {
		p := filepath.Join(dir, name)
		os.MkdirAll(filepath.Dir(p), 0o755)
		if err := os.WriteFile(p, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
		debris = append(debris, p)
	}

	liveTemp := filepath.Join(dir, "journal", "run.tmp-live")
	os.MkdirAll(filepath.Dir(liveTemp), 0o755)
	f, err := os.Create(liveTemp)
	if err != nil || lock(f, liveTemp) != leaseWon {
		t.Fatalf("setup: could not lock a journal temp file: %v", err)
	}
	defer f.Close()

	removed := c.SweepCrashed()
	got := strings.Join(removed, "\n")
	for _, want := range append(debris, dead) {
		if !strings.Contains(got, want) {
			t.Errorf("sweep did not reclaim %s (removed: %v)", want, removed)
		}
	}
	for _, p := range []string{livePath, liveTemp} {
		if _, err := os.Stat(p); err != nil {
			t.Errorf("sweep removed a live holder's file: %v", err)
		}
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
