package core

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"splash2/internal/fault"
	"splash2/internal/runner"
)

// engineTestApps span the orderings the engine tests must hold
// deterministic: barrier-only programs (fft, lu), radix's concurrent
// permutation writes, and barnes's lock-ordered tree build. Logical-time
// execution makes every program's global access interleaving — and
// hence every miss count — a function of its inputs alone, so each must
// be deep-equal across workers, cache round trips and spills.
var engineTestApps = []string{"fft", "lu", "radix", "barnes"}

// engineTestOptions is a small but complete characterization: every
// experiment kind (run, record, recordstats, and the wsweep and lssweep
// replays) is exercised.
func engineTestOptions() ReportOptions {
	return ReportOptions{
		Apps:       engineTestApps,
		Procs:      4,
		ProcList:   []int{1, 4},
		Scale:      SweepScale,
		CacheSizes: []int{16 << 10, 64 << 10},
		LineSizes:  []int{64},
	}
}

// TestParallelMatchesSerial is the PRAM determinism invariant: a
// characterization scheduled on 8 workers must be deep-equal to the
// single-worker serial run.
func TestParallelMatchesSerial(t *testing.T) {
	o := engineTestOptions()

	o.Workers = 1
	serial, err := CollectResults(o)
	if err != nil {
		t.Fatal(err)
	}

	o.Workers = 8
	parallel, err := CollectResults(o)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("parallel results diverge from serial:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
}

// collectWithEngine runs CollectResults through a fresh engine rooted at
// dir and returns the results plus the engine's counters.
func collectWithEngine(t *testing.T, dir string, o ReportOptions) (*Results, runner.Counts) {
	t.Helper()
	e, err := NewEngine(EngineOptions{Workers: 4, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.CollectResults(o)
	if err != nil {
		t.Fatal(err)
	}
	return res, e.Counts()
}

// TestDiskCacheSecondRunExecutesNothing: a second process (modeled by a
// fresh engine over the same cache directory) must be served entirely
// from disk — zero jobs executed — and produce identical results. The
// lazy trace recordings are never demanded when every replay hits.
func TestDiskCacheSecondRunExecutesNothing(t *testing.T) {
	dir := t.TempDir()
	o := engineTestOptions()

	first, c1 := collectWithEngine(t, dir, o)
	if c1.Executed == 0 {
		t.Fatal("first run executed nothing")
	}

	second, c2 := collectWithEngine(t, dir, o)
	if c2.Executed != 0 {
		t.Fatalf("second run executed %d jobs, want 0 (cache hits %d)", c2.Executed, c2.CacheHits)
	}
	if c2.CacheHits == 0 {
		t.Fatal("second run reported no cache hits")
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("cached results differ from computed results")
	}
}

// TestDiskCacheSurvivesCorruption: garbled and truncated cache entries
// must be treated as misses — recomputed, not trusted — and the run must
// still match the original results.
func TestDiskCacheSurvivesCorruption(t *testing.T) {
	dir := t.TempDir()
	o := engineTestOptions()

	first, _ := collectWithEngine(t, dir, o)

	var n int
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		// Alternate corruption modes across the entries.
		n++
		if n%2 == 0 {
			return os.WriteFile(path, []byte("{not json"), 0o644)
		}
		return os.Truncate(path, 3)
	})
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no cache files written")
	}

	again, c := collectWithEngine(t, dir, o)
	if c.Executed == 0 {
		t.Fatal("corrupted cache was not recomputed")
	}
	if !reflect.DeepEqual(first, again) {
		t.Fatal("results after cache corruption differ")
	}
}

// TestTraceSharedAcrossSweeps: the Figure-3 and Figure-7/8 sweeps must
// share one recorded trace per program within an engine. After a
// working-set sweep, a line-size sweep over fresh configurations executes
// only its own fused sweep plus the recording-counters job — the trace
// recording itself is served from the in-memory memo.
func TestTraceSharedAcrossSweeps(t *testing.T) {
	e, err := NewEngine(EngineOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	req := Request{Kind: KindWorkingSets, Apps: []string{"fft"}, Procs: 4, CacheSizes: []int{16 << 10}}
	if _, err := e.Do(context.Background(), req, nil); err != nil {
		t.Fatal(err)
	}
	before := e.Counts().Executed

	// Line-size configs disjoint from the sweep above.
	req.Kind, req.CacheSize, req.LineSizes = KindLineSize, 64<<10, []int{32, 128}
	if _, err := e.Do(context.Background(), req, nil); err != nil {
		t.Fatal(err)
	}
	delta := e.Counts().Executed - before

	want := int64(2) // one fused lssweep + recordstats, no re-record
	if delta != want {
		t.Fatalf("line-size sweep executed %d jobs, want %d (recording not shared?)", delta, want)
	}
}

// TestLeasesCoalesceExecutions: two engines (two processes' worth of
// state) running the same cold request on one cache directory execute
// each program point once between them. The exec job is stored and
// leased like any experiment, so the loser of each key's lease waits for
// the winner's entry instead of executing; an injected delay holds every
// winner's lease open until both engines have contended.
func TestLeasesCoalesceExecutions(t *testing.T) {
	dir := t.TempDir()
	req := Request{
		Kind: KindResults, Apps: []string{"fft", "lu"}, Procs: 4, ProcList: []int{4},
		CacheSizes: []int{16 << 10}, LineSizes: []int{64},
	}
	engines := make([]*Engine, 2)
	results := make([]*Results, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := range engines {
		e, err := NewEngine(EngineOptions{
			Workers: 4, CacheDir: dir,
			Fault: fault.New(1, fault.Rule{Pattern: "job:exec *", Action: fault.Delay, Delay: 500 * time.Millisecond}),
		})
		if err != nil {
			t.Fatal(err)
		}
		engines[i] = e
	}
	for i, e := range engines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = e.Do(context.Background(), req, nil)
		}()
	}
	wg.Wait()
	done, shared := map[string]int{}, map[string]int{}
	for i, e := range engines {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		path := e.Journal().Path()
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		events, err := runner.ReadJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range events {
			if !strings.HasPrefix(ev.Label, "exec ") {
				continue
			}
			switch ev.Event {
			case "job.done":
				done[ev.Key]++
			case "job.shared":
				shared[ev.Key]++
			}
		}
	}
	if !reflect.DeepEqual(results[0], results[1]) {
		t.Fatal("the two engines' results differ")
	}
	if len(done) != len(req.Apps) {
		t.Fatalf("%d exec keys executed, want %d (one per program point): %v", len(done), len(req.Apps), done)
	}
	for key, n := range done {
		if n != 1 || shared[key] != 1 {
			t.Errorf("exec %s: executed %d times and shared %d times, want once each", key[:12], n, shared[key])
		}
	}
	if c0, c1 := engines[0].Counts(), engines[1].Counts(); c0.LeaseShared+c1.LeaseShared < int64(len(done)) {
		t.Errorf("lease counters report %d shared results, want at least %d", c0.LeaseShared+c1.LeaseShared, len(done))
	}
}
