package core

import (
	"context"
	"io"
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

// openFDs counts the test process's open descriptors.
func openFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatal(err)
	}
	return len(ents)
}

// TestEngineCloseReleasesDescriptors: the recordings a report replays
// are served from open containers, and the engine's Close closes every
// one of them, for an uncached engine and a cached one alike.
func TestEngineCloseReleasesDescriptors(t *testing.T) {
	if _, err := os.Stat("/proc/self/fd"); err != nil {
		t.Skip("no /proc/self/fd to count descriptors in")
	}
	for _, cached := range []bool{false, true} {
		name := map[bool]string{false: "uncached", true: "cached"}[cached]
		t.Run(name, func(t *testing.T) {
			o := EngineOptions{Workers: 2}
			if cached {
				o.CacheDir = t.TempDir()
			}
			before := openFDs(t)
			e, err := NewEngine(o)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := e.CollectResults(engineTestOptions()); err != nil {
				t.Fatal(err)
			}
			if held := openFDs(t); held <= before {
				t.Fatalf("%d descriptors after the run, %d before: no recording is served from a file; the test tested nothing", held, before)
			}
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			if after := openFDs(t); after != before {
				t.Errorf("%d descriptors open after Close, %d before NewEngine", after, before)
			}
		})
	}
}

// TestLeasesCoalesceRecordings: two engines on one cache directory that
// demand the same recordings at once — their executions are cached,
// their containers are not — record each program once. The loser of a
// recording's lease is served from the winner's container.
func TestLeasesCoalesceRecordings(t *testing.T) {
	dir := t.TempDir()
	req := Request{
		Kind: KindResults, Apps: []string{"fft", "lu"}, Procs: 4, ProcList: []int{4},
		CacheSizes: []int{16 << 10}, LineSizes: []int{64},
	}
	fill, err := NewEngine(EngineOptions{Workers: 4, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	want, err := fill.Do(context.Background(), req, nil)
	if err != nil {
		t.Fatal(err)
	}
	events, err := runner.ReadJournal(fill.Journal().Path())
	if err != nil {
		t.Fatal(err)
	}
	if err := fill.Close(); err != nil {
		t.Fatal(err)
	}
	// Keep only the executions' result entries: every sweep then misses
	// and demands its recording, whose execution is served from the cache.
	keep := map[string]bool{}
	for _, ev := range events {
		if ev.Event == "job.done" && strings.HasPrefix(ev.Label, "exec ") {
			keep[filepath.Join(dir, ev.Key[:2], ev.Key[2:]+".json")] = true
		}
	}
	entries, err := filepath.Glob(filepath.Join(dir, "??", "*.json"))
	if err != nil || len(keep) == 0 {
		t.Fatalf("no executions to keep (entries %d, err %v)", len(entries), err)
	}
	for _, p := range entries {
		if !keep[p] {
			os.Remove(p)
		}
	}
	if err := os.RemoveAll(filepath.Join(dir, "traces")); err != nil {
		t.Fatal(err)
	}

	engines := make([]*Engine, 2)
	results := make([]*Results, 2)
	errs := make([]error, 2)
	for i := range engines {
		e, err := NewEngine(EngineOptions{
			Workers: 4, CacheDir: dir,
			Fault: fault.New(1, fault.Rule{Pattern: "job:recordv2 *", Action: fault.Delay, Delay: 500 * time.Millisecond}),
		})
		if err != nil {
			t.Fatal(err)
		}
		engines[i] = e
	}
	var wg sync.WaitGroup
	for i, e := range engines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = e.Do(context.Background(), req, nil)
		}()
	}
	wg.Wait()
	var journals []string
	for i, e := range engines {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		journals = append(journals, e.Journal().Path())
	}
	counts := jobEvents(t, journals...)
	for i, e := range engines {
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(results[i], want) {
			t.Errorf("engine %d's results differ from the cold run's", i)
		}
	}
	if n := counts["job.done exec"]; n != 0 {
		t.Errorf("%d executions ran, want 0: they were cached", n)
	}
	if recorded, shared := counts["job.done recordv2"], counts["job.shared recordv2"]; recorded != len(req.Apps) || shared != len(req.Apps) {
		t.Errorf("recordings: %d recorded and %d shared, want %d each (one per program)", recorded, shared, len(req.Apps))
	}
}

// TestWarmReportOpensNoContainer: a report whose results are all cached
// neither probes nor reads a container: no "cache.get" of a trace key
// and no "trace.read" fault point is evaluated.
func TestWarmReportOpensNoContainer(t *testing.T) {
	dir := t.TempDir()
	cold, err := NewEngine(EngineOptions{Workers: 4, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := cold.Report(io.Discard, engineTestOptions()); err != nil {
		t.Fatal(err)
	}
	cold.Close()
	containers := map[string]bool{}
	for _, p := range spillGlob(t, dir) {
		containers["cache.get:"+strings.TrimSuffix(filepath.Base(p), ".sp2t")] = true
	}
	if len(containers) == 0 {
		t.Fatal("no containers written; the test tested nothing")
	}

	inj := fault.New(1,
		fault.Rule{Pattern: "cache.get:*", Action: fault.Delay},
		fault.Rule{Pattern: "trace.read*", Action: fault.Delay})
	warm, err := NewEngine(EngineOptions{Workers: 4, CacheDir: dir, Fault: inj})
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Close()
	if err := warm.Report(io.Discard, engineTestOptions()); err != nil {
		t.Fatal(err)
	}
	if c := warm.Counts(); c.Executed != 0 || c.CacheHits == 0 {
		t.Fatalf("warm report executed %d jobs and hit the cache %d times, want 0 and some", c.Executed, c.CacheHits)
	}
	fired := inj.Fired()
	if len(fired) == 0 {
		t.Fatal("no probe observed; the test tested nothing")
	}
	for _, f := range fired {
		if containers[f.Op] || strings.HasPrefix(f.Op, "trace.read") {
			t.Errorf("warm report touched a container: %s", f.Op)
		}
	}
}

// TestDamagedContainerCostsOneExecution: a container whose payload is
// damaged but whose entry magic is intact is re-recorded by its point's
// one execution: the record job is served from what the execution
// stored and runs no program of its own.
func TestDamagedContainerCostsOneExecution(t *testing.T) {
	o := engineTestOptions()
	base, err := CollectResults(o)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	first, err := NewEngine(EngineOptions{Workers: 4, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := first.CollectResults(o); err != nil {
		t.Fatal(err)
	}
	first.Close()
	containers := spillGlob(t, dir)
	if len(containers) == 0 {
		t.Fatal("no spilled containers written")
	}
	damaged := containers[0]
	clean, err := os.ReadFile(damaged)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), clean...)
	bad[entryHeaderLen+len(bad[entryHeaderLen:])/2] ^= 0xff
	if err := os.WriteFile(damaged, bad, 0o644); err != nil {
		t.Fatal(err)
	}

	keepOnlyTraces(t, dir)
	second, err := NewEngine(EngineOptions{Workers: 4, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	res, err := second.CollectResults(o)
	if err != nil {
		t.Fatal(err)
	}
	counts := jobEvents(t, second.Journal().Path())
	if err := second.Close(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, res) {
		t.Fatal("results over a damaged container diverge from the clean run")
	}
	if got, err := os.ReadFile(damaged); err != nil || string(got) != string(clean) {
		t.Errorf("%s was not re-recorded (err %v)", filepath.Base(damaged), err)
	}
	points := counts["job.start exec"]
	if programs := counts["job.done exec"] + counts["job.done recordv2"]; points == 0 || programs != points {
		t.Errorf("%d programs ran for %d program points, want one each (%v)", programs, points, counts)
	}
	if n := counts["job.shared recordv2"]; n != 1 {
		t.Errorf("%d record jobs served from their execution's recording, want 1 (the damaged one)", n)
	}
}
