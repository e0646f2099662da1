package runner

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"splash2/internal/fault"
)

func ftRunner(t *testing.T, opts Options) *Runner {
	t.Helper()
	if opts.Workers == 0 {
		opts.Workers = 4
	}
	return New(opts)
}

func TestPanicIsolatedFailFast(t *testing.T) {
	r := ftRunner(t, Options{})
	g := r.NewGraph()
	boom := Submit(g, Spec{Label: "boom"}, func(ctx context.Context) (int, error) {
		panic("kaboom")
	})
	err := g.Wait(context.Background())
	if err == nil {
		t.Fatal("Wait succeeded past a panicking job")
	}
	var je *JobError
	if !errors.As(err, &je) {
		t.Fatalf("Wait error %T is not a *JobError: %v", err, err)
	}
	if !je.Panicked || je.Label != "boom" {
		t.Fatalf("JobError = %+v", je)
	}
	if !strings.Contains(je.Stack, "goroutine") {
		t.Fatalf("JobError.Stack does not look like a stack:\n%s", je.Stack)
	}
	if !strings.Contains(je.Error(), "kaboom") {
		t.Fatalf("JobError message %q lost the panic value", je.Error())
	}
	if _, err := boom.Result(); err == nil {
		t.Fatal("panicked job's Result succeeded")
	}
	if c := r.Counts(); c.Failed != 1 {
		t.Fatalf("Counts.Failed = %d, want 1", c.Failed)
	}
}

func TestPanicKeepGoing(t *testing.T) {
	r := ftRunner(t, Options{})
	g := r.NewGraph()
	g.SetKeepGoing(true)
	Submit(g, Spec{Label: "boom"}, func(ctx context.Context) (int, error) {
		panic("kaboom")
	})
	ok := Submit(g, Spec{Label: "survivor"}, func(ctx context.Context) (int, error) {
		return 42, nil
	})
	if err := g.Wait(context.Background()); err != nil {
		t.Fatalf("keep-going Wait failed: %v", err)
	}
	if v, err := ok.Result(); err != nil || v != 42 {
		t.Fatalf("survivor = %v, %v", v, err)
	}
	fails := g.Failures()
	if len(fails) != 1 || fails[0].Label != "boom" || !fails[0].Panicked {
		t.Fatalf("Failures() = %+v", fails)
	}
}

func TestTimeoutAbandonsWedgedJob(t *testing.T) {
	r := ftRunner(t, Options{Timeout: 30 * time.Millisecond})
	g := r.NewGraph()
	g.SetKeepGoing(true)
	released := make(chan struct{})
	wedged := Submit(g, Spec{Label: "wedged"}, func(ctx context.Context) (int, error) {
		<-released // ignores ctx entirely: a truly wedged job
		return 0, nil
	})
	ok := Submit(g, Spec{Label: "quick"}, func(ctx context.Context) (int, error) {
		return 7, nil
	})
	done := make(chan error, 1)
	go func() { done <- g.Wait(context.Background()) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Wait: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Wait hung on a wedged job despite the timeout")
	}
	close(released)
	if _, err := wedged.Result(); !errors.Is(err, ErrTimeout) {
		t.Fatalf("wedged job error = %v, want ErrTimeout", err)
	}
	var je *JobError
	if _, err := wedged.Result(); !errors.As(err, &je) || !je.TimedOut {
		t.Fatalf("wedged job error not a timed-out JobError: %v", err)
	}
	if v, err := ok.Result(); err != nil || v != 7 {
		t.Fatalf("quick job = %v, %v", v, err)
	}
	if c := r.Counts(); c.TimedOut != 1 || c.Failed != 1 {
		t.Fatalf("Counts = %+v", c)
	}
}

// TestTimedOutBodyKeepsWorkerSlot: a job abandoned at its timeout fails
// with ErrTimeout at once, but its body — which ignores its context, as
// every mach execution and memsys pass does — keeps the worker slot until
// it returns, so abandoned bodies never run more than Workers at once.
func TestTimedOutBodyKeepsWorkerSlot(t *testing.T) {
	const workers, jobs = 1, 4
	r := ftRunner(t, Options{Workers: workers, Timeout: 10 * time.Millisecond})
	g := r.NewGraph()
	g.SetKeepGoing(true)
	var running, peak atomic.Int64
	var hs []Job[int]
	for i := 0; i < jobs; i++ {
		hs = append(hs, Submit(g, Spec{Label: fmt.Sprintf("slow%d", i)}, func(ctx context.Context) (int, error) {
			n := running.Add(1)
			for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
			}
			time.Sleep(100 * time.Millisecond) // ignores ctx
			running.Add(-1)
			return 0, nil
		}))
	}
	if err := g.Wait(context.Background()); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	for _, h := range hs {
		if _, err := h.Result(); !errors.Is(err, ErrTimeout) {
			t.Fatalf("job error = %v, want ErrTimeout", err)
		}
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("%d bodies ran at once, want ≤ %d workers", p, workers)
	}
	if c := r.Counts(); c.TimedOut != jobs || c.Failed != jobs {
		t.Fatalf("Counts = %+v", c)
	}
}

func TestPermanentErrorNotRetried(t *testing.T) {
	r := ftRunner(t, Options{})
	g := r.NewGraph()
	var calls atomic.Int64
	Submit(g, Spec{Label: "fatal"}, func(ctx context.Context) (int, error) {
		calls.Add(1)
		return 0, errors.New("permanent")
	})
	if err := g.Wait(context.Background()); err == nil {
		t.Fatal("Wait succeeded")
	}
	if calls.Load() != 1 {
		t.Fatalf("permanent failure retried: %d calls", calls.Load())
	}
}

func TestKeepGoingSkipsDependents(t *testing.T) {
	r := ftRunner(t, Options{})
	g := r.NewGraph()
	g.SetKeepGoing(true)
	bad := Submit(g, Spec{Label: "bad"}, func(ctx context.Context) (int, error) {
		return 0, errors.New("broken")
	})
	dep := Submit(g, Spec{Label: "dependent", Deps: []Handle{bad}}, func(ctx context.Context) (int, error) {
		t.Error("dependent of a failed job ran")
		return 0, nil
	})
	ok := Submit(g, Spec{Label: "independent"}, func(ctx context.Context) (int, error) {
		return 5, nil
	})
	if err := g.Wait(context.Background()); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	var je *JobError
	if _, err := dep.Result(); !errors.As(err, &je) || !je.Skipped {
		t.Fatalf("dependent error = %v, want skipped JobError", err)
	}
	if v, err := ok.Result(); err != nil || v != 5 {
		t.Fatalf("independent = %v, %v", v, err)
	}
	c := r.Counts()
	if c.Failed != 1 || c.Skipped != 1 {
		t.Fatalf("Counts = %+v", c)
	}
	fails := g.Failures()
	if len(fails) != 2 {
		t.Fatalf("Failures() has %d records, want 2: %+v", len(fails), fails)
	}
	labels := map[string]bool{}
	for _, f := range fails {
		labels[f.Label] = true
	}
	if !labels["bad"] || !labels["dependent"] {
		t.Fatalf("Failures() labels = %v", labels)
	}
}

func TestFaultInjectionAtJobPoint(t *testing.T) {
	inj := fault.New(3, fault.Rule{Pattern: "job:victim", Action: fault.Error})
	r := ftRunner(t, Options{Fault: inj})
	g := r.NewGraph()
	g.SetKeepGoing(true)
	victim := Submit(g, Spec{Label: "victim"}, func(ctx context.Context) (int, error) {
		return 1, nil
	})
	if err := g.Wait(context.Background()); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	var ie *fault.InjectedError
	if _, err := victim.Result(); !errors.As(err, &ie) {
		t.Fatalf("victim error = %v, want InjectedError", err)
	}
	if c := r.Counts(); c.Failed != 1 {
		t.Fatalf("Counts = %+v", c)
	}
	if n := len(inj.Fired()); n != 1 {
		t.Fatalf("injector fired %d times, want 1", n)
	}
}

func TestInjectedPanicIsRecovered(t *testing.T) {
	inj := fault.New(9, fault.Rule{Pattern: "job:target", Action: fault.Panic})
	r := ftRunner(t, Options{Fault: inj})
	g := r.NewGraph()
	g.SetKeepGoing(true)
	target := Submit(g, Spec{Label: "target"}, func(ctx context.Context) (int, error) {
		return 1, nil
	})
	if err := g.Wait(context.Background()); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	var je *JobError
	if _, err := target.Result(); !errors.As(err, &je) || !je.Panicked {
		t.Fatalf("target error = %v, want panicked JobError", err)
	}
}

// TestCancellationNoGoroutineLeak cancels mid-graph and asserts the pool
// drains promptly, no goroutines leak, and the on-disk cache stays
// consistent (only completed jobs are stored, with valid entries).
func TestCancellationNoGoroutineLeak(t *testing.T) {
	dir := t.TempDir()
	cache, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()

	r := ftRunner(t, Options{Workers: 4, Cache: cache})
	g := r.NewGraph()
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{}, 64)
	for i := 0; i < 32; i++ {
		i := i
		Submit(g, Spec{Label: fmt.Sprintf("slow-%d", i), Key: KeyOf("leaktest", fmt.Sprint(i))},
			func(ctx context.Context) (int, error) {
				started <- struct{}{}
				select {
				case <-ctx.Done():
					return 0, ctx.Err()
				case <-time.After(10 * time.Second):
					return i, nil
				}
			})
	}
	go func() {
		<-started
		cancel()
	}()
	waitDone := make(chan error, 1)
	go func() { waitDone <- g.Wait(ctx) }()
	select {
	case err := <-waitDone:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Wait = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Wait did not return promptly after cancellation")
	}
	if c := r.Counts(); c.Failed != 0 {
		t.Fatalf("cancellation recorded failures: %+v", c)
	}
	if fails := g.Failures(); len(fails) != 0 {
		t.Fatalf("cancellation produced failure records: %+v", fails)
	}

	// Goroutine count must settle back to the baseline (small slack for
	// runtime housekeeping goroutines).
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Cache consistency: every stored entry must decode, and no tmp files
	// may remain.
	entries := 0
	err = filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		if strings.Contains(info.Name(), ".tmp") {
			return fmt.Errorf("stale tmp file left behind: %s", path)
		}
		entries++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	r2 := ftRunner(t, Options{Cache: cache})
	g2 := r2.NewGraph()
	for i := 0; i < 32; i++ {
		i := i
		Submit(g2, Spec{Label: fmt.Sprintf("slow-%d", i), Key: KeyOf("leaktest", fmt.Sprint(i))},
			func(ctx context.Context) (int, error) { return i, nil })
	}
	if err := g2.Wait(context.Background()); err != nil {
		t.Fatalf("post-cancel rerun: %v", err)
	}
	c2 := r2.Counts()
	if int(c2.CacheHits) != entries {
		t.Fatalf("rerun served %d cache hits, disk holds %d entries", c2.CacheHits, entries)
	}
}
