package runner

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
)

// TestCacheConcurrentAccess pins the Cache concurrency contract (see the
// Cache doc comment): many goroutines reading and writing overlapping
// keys — with damaged entries thrown in — never observe a torn value and
// never race (the suite runs under -race in CI). Every successful Get
// must decode to the exact value Put stored for that key.
func TestCacheConcurrentAccess(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const keys = 8
	goroutines := 16
	rounds := 50
	if testing.Short() {
		goroutines, rounds = 8, 20
	}

	key := func(i int) Key { return KeyOf("conc", i%keys) }
	value := func(i int) []byte { return []byte(fmt.Sprintf(`{"k":%d}`, i%keys)) }
	decode := func(b []byte) (any, error) {
		var v struct{ K int }
		err := json.Unmarshal(b, &v)
		return v.K, err
	}

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := g + r
				switch r % 4 {
				case 0:
					if err := c.Put(context.Background(), key(i), value(i)); err != nil {
						t.Errorf("Put: %v", err)
					}
				case 3:
					// Damage the entry on disk: readers must degrade to a
					// miss, never return garbage or crash.
					os.WriteFile(c.path(key(i)), []byte("not json"), 0o644)
				default:
					if v, ok := c.Get(context.Background(), key(i), decode); ok {
						if got, want := v.(int), i%keys; got != want {
							t.Errorf("Get(key %d) = %d, want %d (torn read)", want, got, want)
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()

	// After the storm, every key must round-trip cleanly again.
	for i := 0; i < keys; i++ {
		if err := c.Put(context.Background(), key(i), value(i)); err != nil {
			t.Fatalf("final Put: %v", err)
		}
		v, ok := c.Get(context.Background(), key(i), decode)
		if !ok || v.(int) != i {
			t.Fatalf("final Get(key %d) = %v, %v", i, v, ok)
		}
	}
}

// TestConcurrentGraphsShareWorkerPool runs many graphs at once on one
// Runner and asserts (a) every graph sees correct results, and (b) the
// number of simultaneously executing jobs never exceeds Workers — the
// runner-wide semaphore multiplexes concurrent graphs instead of giving
// each its own pool.
func TestConcurrentGraphsShareWorkerPool(t *testing.T) {
	const workers = 3
	r := New(Options{Workers: workers})
	var running, peak atomic.Int64
	track := func() func() {
		n := running.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		return func() { running.Add(-1) }
	}

	graphs := 8
	jobsPer := 6
	if testing.Short() {
		graphs = 4
	}
	var wg sync.WaitGroup
	for gi := 0; gi < graphs; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			g := r.NewGraph()
			jobs := make([]Job[int], jobsPer)
			for ji := 0; ji < jobsPer; ji++ {
				ji := ji
				// Overlapping keys across graphs: job ji is shared by every
				// graph, so concurrent graphs contend on the same work.
				jobs[ji] = Submit(g, Spec{Key: KeyOf("pool", ji)}, func(ctx context.Context) (int, error) {
					defer track()()
					return ji * ji, nil
				})
			}
			if err := g.Wait(context.Background()); err != nil {
				t.Errorf("graph %d: %v", gi, err)
				return
			}
			for ji, j := range jobs {
				if v, err := j.Result(); err != nil || v != ji*ji {
					t.Errorf("graph %d job %d = %d, %v; want %d", gi, ji, v, err, ji*ji)
				}
			}
		}(gi)
	}
	wg.Wait()
	if p := peak.Load(); p > workers {
		t.Fatalf("peak concurrent jobs %d exceeds Workers=%d: graphs are not sharing the pool", p, workers)
	}
	if exec := r.Counts().Executed; exec < int64(jobsPer) {
		t.Fatalf("executed %d < %d distinct jobs", exec, jobsPer)
	}
}

// TestPerGraphKeepGoingIsolation runs a keep-going graph with a failing
// job next to a fail-fast graph on the same Runner: the failure stays in
// its own graph's log and policy, and the clean graph is untouched.
func TestPerGraphKeepGoingIsolation(t *testing.T) {
	r := New(Options{Workers: 2}) // runner default: fail-fast

	boom := errors.New("boom")
	var wg sync.WaitGroup
	wg.Add(2)

	var keepErr, cleanErr error
	var keepFails []*JobError
	keepGraph := r.NewGraph()
	keepGraph.SetKeepGoing(true)
	go func() {
		defer wg.Done()
		bad := Submit(keepGraph, Spec{Label: "bad", Key: KeyOf("iso", "bad")}, func(ctx context.Context) (int, error) {
			return 0, boom
		})
		dep := Submit(keepGraph, Spec{Label: "dep", Key: KeyOf("iso", "dep"), Deps: []Handle{bad}}, func(ctx context.Context) (int, error) {
			return 1, nil
		})
		keepErr = keepGraph.Wait(context.Background())
		if _, err := dep.Result(); err == nil {
			t.Error("dependent of failed job completed successfully")
		}
		keepFails = keepGraph.Failures()
	}()

	cleanGraph := r.NewGraph()
	go func() {
		defer wg.Done()
		ok := Submit(cleanGraph, Spec{Label: "ok", Key: KeyOf("iso", "ok")}, func(ctx context.Context) (int, error) {
			return 42, nil
		})
		cleanErr = cleanGraph.Wait(context.Background())
		if v, err := ok.Result(); err != nil || v != 42 {
			t.Errorf("clean graph job = %d, %v; want 42", v, err)
		}
	}()
	wg.Wait()

	if keepErr != nil {
		t.Fatalf("keep-going graph Wait = %v, want nil", keepErr)
	}
	if cleanErr != nil {
		t.Fatalf("clean graph Wait = %v, want nil", cleanErr)
	}
	if len(keepFails) != 2 { // the failed job and its skipped dependent
		t.Fatalf("keep-going graph logged %d failures, want 2: %v", len(keepFails), keepFails)
	}
	if got := cleanGraph.Failures(); len(got) != 0 {
		t.Fatalf("clean graph logged foreign failures: %v", got)
	}
	if !errors.Is(keepFails[0].Err, boom) && !errors.Is(keepFails[1].Err, boom) {
		t.Fatalf("failure log lost the cause: %v", keepFails)
	}
}

// TestPerGraphProgressSinks attaches a separate OnProgress sink to each
// of two concurrent graphs and asserts neither observes the other's
// events.
func TestPerGraphProgressSinks(t *testing.T) {
	r := New(Options{Workers: 4})
	type sink struct {
		mu     sync.Mutex
		labels map[string]bool
		sum    int
	}
	collect := func(s *sink) ProgressFunc {
		return func(ev ProgressEvent) {
			s.mu.Lock()
			defer s.mu.Unlock()
			if ev.Status == "summary" {
				s.sum++
				return
			}
			s.labels[ev.Label] = true
		}
	}
	a, b := &sink{labels: map[string]bool{}}, &sink{labels: map[string]bool{}}

	var wg sync.WaitGroup
	for i, s := range []*sink{a, b} {
		wg.Add(1)
		go func(i int, s *sink) {
			defer wg.Done()
			g := r.NewGraph()
			g.OnProgress(collect(s))
			for j := 0; j < 3; j++ {
				Submit(g, Spec{Label: fmt.Sprintf("g%d-j%d", i, j), Key: KeyOf("prog", i, j)}, func(ctx context.Context) (int, error) {
					return j, nil
				})
			}
			if err := g.Wait(context.Background()); err != nil {
				t.Errorf("graph %d: %v", i, err)
			}
		}(i, s)
	}
	wg.Wait()

	for label := range a.labels {
		if label[:2] != "g0" {
			t.Fatalf("graph 0 sink saw foreign event %q", label)
		}
	}
	for label := range b.labels {
		if label[:2] != "g1" {
			t.Fatalf("graph 1 sink saw foreign event %q", label)
		}
	}
	if len(a.labels) != 3 || a.sum != 1 || len(b.labels) != 3 || b.sum != 1 {
		t.Fatalf("sinks incomplete: a=%d/%d b=%d/%d (want 3 jobs + 1 summary each)",
			len(a.labels), a.sum, len(b.labels), b.sum)
	}
}

// TestCacheSharedAcrossConcurrentGraphs drives two runners (two
// "processes") over one cache directory concurrently; every job is
// either executed once or served from the shared store, and all results
// agree.
func TestCacheSharedAcrossConcurrentGraphs(t *testing.T) {
	dir := t.TempDir()
	var wg sync.WaitGroup
	results := make([][]int, 4)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := OpenCache(dir)
			if err != nil {
				t.Error(err)
				return
			}
			r := New(Options{Workers: 2, Cache: c})
			g := r.NewGraph()
			jobs := make([]Job[int], 5)
			for j := range jobs {
				j := j
				jobs[j] = Submit(g, Spec{Key: KeyOf("shared", j)}, func(ctx context.Context) (int, error) {
					return 100 + j, nil
				})
			}
			if err := g.Wait(context.Background()); err != nil {
				t.Error(err)
				return
			}
			out := make([]int, len(jobs))
			for j, jb := range jobs {
				out[j], _ = jb.Result()
			}
			results[i] = out
		}(i)
	}
	wg.Wait()
	for i, out := range results {
		for j, v := range out {
			if v != 100+j {
				t.Fatalf("runner %d job %d = %d, want %d", i, j, v, 100+j)
			}
		}
	}
	// The files must exist and round-trip after the storm.
	c, _ := OpenCache(dir)
	n := 0
	filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			n++
		}
		return nil
	})
	if n != 5 {
		t.Fatalf("cache holds %d entries, want 5", n)
	}
	v, ok := c.Get(context.Background(), KeyOf("shared", 0), codecFor(reflect.TypeOf(0)).decode)
	if !ok || v.(int) != 100 {
		t.Fatalf("shared entry 0 = %v, %v", v, ok)
	}
}

// TestConcurrentGraphsAdoptOneValue: two graphs that execute the same key
// at once — neither found it in the memo — end up with one value. The
// bodies return different values on purpose (a deterministic experiment
// would not), so the test sees which one each graph completes with: the
// first memoized, in both graphs, in a dependent reading it, and in a
// later graph served from the memo.
func TestConcurrentGraphsAdoptOneValue(t *testing.T) {
	r := New(Options{Workers: 2})
	k := KeyOf("adopt", 1)
	var started sync.WaitGroup
	started.Add(2)
	type outcome struct{ shared, dependent int }
	outs := make([]outcome, 2)
	var wg sync.WaitGroup
	for i := range outs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g := r.NewGraph()
			shared := Submit(g, Spec{Label: "shared", Key: k}, func(context.Context) (int, error) {
				started.Done()
				started.Wait() // both graphs are executing the key
				return 100 + i, nil
			})
			dep := Submit(g, Spec{Label: "dependent", Deps: []Handle{shared}}, func(context.Context) (int, error) {
				return shared.Result()
			})
			if err := g.Wait(context.Background()); err != nil {
				t.Error(err)
				return
			}
			outs[i].shared, _ = shared.Result()
			outs[i].dependent, _ = dep.Result()
		}()
	}
	wg.Wait()

	g := r.NewGraph()
	later := Submit(g, Spec{Label: "later", Key: k}, func(context.Context) (int, error) {
		t.Error("a memoized key executed again")
		return 0, nil
	})
	if err := g.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	memo, _ := later.Result()
	for i, o := range outs {
		if o.shared != memo || o.dependent != memo {
			t.Errorf("graph %d completed with %d (dependent read %d); the memo holds %d", i, o.shared, o.dependent, memo)
		}
	}
	if c := r.Counts(); c.Executed != 4 || c.MemoHits != 1 {
		t.Errorf("executed = %d, memo hits = %d; want 4 (the key twice, two dependents) and 1", c.Executed, c.MemoHits)
	}
}
