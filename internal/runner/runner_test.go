package runner

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestDependencyOrderAndResults(t *testing.T) {
	r := New(Options{Workers: 4})
	g := r.NewGraph()
	base := Submit(g, Spec{Label: "base"}, func(ctx context.Context) (int, error) {
		return 21, nil
	})
	doubled := Submit(g, Spec{Label: "doubled", Deps: []Handle{base}}, func(ctx context.Context) (int, error) {
		v, err := base.Result()
		if err != nil {
			return 0, err
		}
		return 2 * v, nil
	})
	if err := g.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	v, err := doubled.Result()
	if err != nil || v != 42 {
		t.Fatalf("got %d, %v", v, err)
	}
}

func TestResultBeforeCompletion(t *testing.T) {
	r := New(Options{Workers: 1})
	g := r.NewGraph()
	j := Submit(g, Spec{Label: "x"}, func(ctx context.Context) (int, error) { return 1, nil })
	if _, err := j.Result(); err == nil {
		t.Fatal("Result before Wait did not error")
	}
}

func TestLazyJobSkippedWithoutDependents(t *testing.T) {
	r := New(Options{Workers: 2})
	g := r.NewGraph()
	var ran atomic.Bool
	Submit(g, Spec{Label: "lazy", Lazy: true}, func(ctx context.Context) (int, error) {
		ran.Store(true)
		return 0, nil
	})
	Submit(g, Spec{Label: "root"}, func(ctx context.Context) (int, error) { return 1, nil })
	if err := g.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if ran.Load() {
		t.Fatal("lazy job without dependents ran")
	}
	if got := r.Counts().Executed; got != 1 {
		t.Fatalf("executed %d jobs, want 1", got)
	}
}

func TestLazyJobRunsWhenDemanded(t *testing.T) {
	r := New(Options{Workers: 2})
	g := r.NewGraph()
	var ran atomic.Bool
	lazy := Submit(g, Spec{Label: "lazy", Lazy: true}, func(ctx context.Context) (int, error) {
		ran.Store(true)
		return 7, nil
	})
	root := Submit(g, Spec{Label: "root", Deps: []Handle{lazy}}, func(ctx context.Context) (int, error) {
		v, err := lazy.Result()
		return v + 1, err
	})
	if err := g.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !ran.Load() {
		t.Fatal("demanded lazy job did not run")
	}
	if v, _ := root.Result(); v != 8 {
		t.Fatalf("root = %d", v)
	}
}

func TestKeyDeduplication(t *testing.T) {
	r := New(Options{Workers: 4})
	g := r.NewGraph()
	var runs atomic.Int64
	k := KeyOf("test", "dedup")
	mk := func() Job[int] {
		return Submit(g, Spec{Label: "dup", Key: k}, func(ctx context.Context) (int, error) {
			runs.Add(1)
			return 5, nil
		})
	}
	a, b := mk(), mk()
	if a.raw() != b.raw() {
		t.Fatal("same key produced distinct jobs")
	}
	if err := g.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if runs.Load() != 1 {
		t.Fatalf("job ran %d times", runs.Load())
	}
}

func TestMemoAcrossGraphs(t *testing.T) {
	r := New(Options{Workers: 2})
	var runs atomic.Int64
	k := KeyOf("test", "memo")
	for i := 0; i < 2; i++ {
		g := r.NewGraph()
		j := Submit(g, Spec{Label: "memo", Key: k}, func(ctx context.Context) (string, error) {
			runs.Add(1)
			return "value", nil
		})
		if err := g.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		if v, err := j.Result(); err != nil || v != "value" {
			t.Fatalf("graph %d: %q, %v", i, v, err)
		}
	}
	if runs.Load() != 1 {
		t.Fatalf("memoized job ran %d times", runs.Load())
	}
	if c := r.Counts(); c.MemoHits != 1 {
		t.Fatalf("memo hits = %d, want 1", c.MemoHits)
	}
}

func TestFailFastPropagates(t *testing.T) {
	r := New(Options{Workers: 2})
	g := r.NewGraph()
	boom := errors.New("boom")
	bad := Submit(g, Spec{Label: "bad"}, func(ctx context.Context) (int, error) {
		return 0, boom
	})
	dep := Submit(g, Spec{Label: "dep", Deps: []Handle{bad}}, func(ctx context.Context) (int, error) {
		t.Error("dependent of failed job ran")
		return 0, nil
	})
	// Many slow jobs that should be cancelled once bad fails.
	for i := 0; i < 50; i++ {
		Submit(g, Spec{Label: fmt.Sprintf("slow%d", i)}, func(ctx context.Context) (int, error) {
			select {
			case <-ctx.Done():
				return 0, ctx.Err()
			case <-time.After(50 * time.Millisecond):
				return 1, nil
			}
		})
	}
	err := g.Wait(context.Background())
	if !errors.Is(err, boom) {
		t.Fatalf("Wait error = %v, want %v", err, boom)
	}
	if _, err := dep.Result(); err == nil {
		t.Fatal("dependent of failed job has no error")
	}
	// Idempotent: a second Wait returns the same failure.
	if err2 := g.Wait(context.Background()); !errors.Is(err2, boom) {
		t.Fatalf("second Wait = %v", err2)
	}
}

func TestContextCancellation(t *testing.T) {
	r := New(Options{Workers: 2})
	g := r.NewGraph()
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{}, 1)
	Submit(g, Spec{Label: "hang"}, func(ctx context.Context) (int, error) {
		select {
		case started <- struct{}{}:
		default:
		}
		<-ctx.Done()
		return 0, ctx.Err()
	})
	go func() {
		<-started
		cancel()
	}()
	if err := g.Wait(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait = %v, want context.Canceled", err)
	}
}

func TestWorkerPoolRunsConcurrently(t *testing.T) {
	const n = 4
	r := New(Options{Workers: n})
	g := r.NewGraph()
	// Each job blocks until all n are running at once: passes only if the
	// pool really provides n-way concurrency.
	gate := make(chan struct{})
	var arrived atomic.Int64
	for i := 0; i < n; i++ {
		Submit(g, Spec{Label: fmt.Sprintf("conc%d", i)}, func(ctx context.Context) (int, error) {
			if arrived.Add(1) == n {
				close(gate)
			}
			select {
			case <-gate:
				return 1, nil
			case <-time.After(10 * time.Second):
				return 0, errors.New("pool never reached full concurrency")
			}
		})
	}
	if err := g.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestDiskCacheServesSecondRunner(t *testing.T) {
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := KeyOf("test", "disk", 1)
	run := func() (int, Counts) {
		r := New(Options{Workers: 1, Cache: cache})
		g := r.NewGraph()
		j := Submit(g, Spec{Label: "cached", Key: k}, func(ctx context.Context) (int, error) {
			return 99, nil
		})
		if err := g.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		v, err := j.Result()
		if err != nil {
			t.Fatal(err)
		}
		return v, r.Counts()
	}
	v1, c1 := run()
	if c1.Executed != 1 || v1 != 99 {
		t.Fatalf("first run: executed=%d v=%d", c1.Executed, v1)
	}
	v2, c2 := run()
	if c2.Executed != 0 || c2.CacheHits != 1 || v2 != 99 {
		t.Fatalf("second run not served from cache: %+v v=%d", c2, v2)
	}
}

func TestCacheSkipsLazyDependency(t *testing.T) {
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var records atomic.Int64
	kRec := KeyOf("test", "rec")
	kRep := KeyOf("test", "rep")
	run := func() Counts {
		r := New(Options{Workers: 2, Cache: cache})
		g := r.NewGraph()
		rec := Submit(g, Spec{Label: "record", Key: kRec, Lazy: true}, func(ctx context.Context) (int, error) {
			records.Add(1)
			return 10, nil
		})
		Submit(g, Spec{Label: "replay", Key: kRep, Deps: []Handle{rec}}, func(ctx context.Context) (int, error) {
			v, err := rec.Result()
			return v * 3, err
		})
		if err := g.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		return r.Counts()
	}
	run()
	if records.Load() != 1 {
		t.Fatalf("record ran %d times in first run", records.Load())
	}
	c := run()
	if records.Load() != 1 {
		t.Fatal("record re-ran although every replay was cached")
	}
	if c.Executed != 0 {
		t.Fatalf("second run executed %d jobs, want 0", c.Executed)
	}
}

func TestProgressOutput(t *testing.T) {
	var buf strings.Builder
	r := New(Options{Workers: 1, Progress: &buf})
	g := r.NewGraph()
	Submit(g, Spec{Label: "only-job"}, func(ctx context.Context) (int, error) { return 1, nil })
	if err := g.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "[1/1] only-job") {
		t.Fatalf("missing per-job line in %q", out)
	}
	if !strings.Contains(out, "1 executed") {
		t.Fatalf("missing summary line in %q", out)
	}
}

func TestKeyDeterminismAndMapOrder(t *testing.T) {
	a := KeyOf("run", map[string]int{"n": 1024, "b": 8}, "fft")
	b := KeyOf("run", map[string]int{"b": 8, "n": 1024}, "fft")
	if a.String() != b.String() {
		t.Fatal("map key order changed the hash")
	}
	c := KeyOf("run", map[string]int{"n": 1024, "b": 16}, "fft")
	if a.String() == c.String() {
		t.Fatal("different opts collided")
	}
	d := KeyOf("replay", map[string]int{"n": 1024, "b": 8}, "fft")
	if a.String() == d.String() {
		t.Fatal("different kinds collided")
	}
	if (Key{}).IsZero() != true || a.IsZero() {
		t.Fatal("IsZero misbehaves")
	}
}

// TestLookupServesKeptValue: a value Keep stored is served by Lookup in
// a later runner as one cache hit, with a summary of one job served; a
// runner without a cache, or another key, misses.
func TestLookupServesKeptValue(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := KeyOf("lookup", "whole")
	ctx := context.Background()
	Keep(ctx, New(Options{Cache: c}).NewGraph(), k, []string{"a", "b"})

	r := New(Options{Cache: c})
	g := r.NewGraph()
	var sums []ProgressEvent
	g.OnProgress(func(ev ProgressEvent) { sums = append(sums, ev) })
	v, ok := Lookup[[]string](ctx, g, k)
	if !ok || strings.Join(v, ",") != "a,b" {
		t.Fatalf("Lookup = %v, %v; want the kept value", v, ok)
	}
	if n := r.Counts().CacheHits; n != 1 {
		t.Errorf("%d cache hits, want 1", n)
	}
	if len(sums) != 1 || sums[0].Status != "summary" || sums[0].Jobs != 1 || sums[0].Served != 1 || sums[0].Executed != 0 {
		t.Errorf("progress %+v, want one summary of one job served", sums)
	}
	if _, ok := Lookup[[]string](ctx, r.NewGraph(), KeyOf("lookup", "other")); ok {
		t.Error("Lookup of a key never kept hit")
	}
	if _, ok := Lookup[[]string](ctx, New(Options{}).NewGraph(), k); ok {
		t.Error("Lookup without a cache hit")
	}
	if _, ok := Lookup[[]int](ctx, r.NewGraph(), k); ok {
		t.Error("Lookup as another type hit")
	}
}
