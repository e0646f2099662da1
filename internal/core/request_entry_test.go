package core

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"splash2/internal/fault"
	"splash2/internal/runner"
)

// requestEntryPath is where a cache directory holds the stored results
// of a report (kindReport) or results request made from o.
func requestEntryPath(t *testing.T, dir string, o ReportOptions, kind string) (string, runner.Key) {
	t.Helper()
	req, err := o.request(kind, false)
	if err != nil {
		t.Fatal(err)
	}
	k := resultsKey(req)
	hx := k.String()
	return filepath.Join(dir, hx[:2], hx[2:]+".json"), k
}

// reportWith runs o's report through a fresh engine with eo and returns
// the text and the engine's counters.
func reportWith(t *testing.T, eo EngineOptions, o ReportOptions) (string, runner.Counts) {
	t.Helper()
	e, err := NewEngine(eo)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	var buf bytes.Buffer
	if err := e.Report(&buf, o); err != nil {
		t.Fatal(err)
	}
	return buf.String(), e.Counts()
}

// TestRequestEntryWarmReadsOneEntry: a warm report reads exactly one
// entry, its own stored results, and submits no job; its text is the
// cold report's.
func TestRequestEntryWarmReadsOneEntry(t *testing.T) {
	dir := t.TempDir()
	o := engineTestOptions()
	cold, _ := reportWith(t, EngineOptions{Workers: 4, CacheDir: dir}, o)
	_, key := requestEntryPath(t, dir, o, kindReport)

	inj := fault.New(1, fault.Rule{Pattern: "cache.get:*", Action: fault.Delay})
	warm, c := reportWith(t, EngineOptions{Workers: 4, CacheDir: dir, Fault: inj}, o)
	if warm != cold {
		t.Fatal("warm report differs from the cold one")
	}
	var reads []string
	for _, f := range inj.Fired() {
		reads = append(reads, f.Op)
	}
	if want := []string{"cache.get:" + key.String()}; !reflect.DeepEqual(reads, want) {
		t.Errorf("warm report read %v, want only its request entry %v", reads, want)
	}
	if c.Submitted != 0 || c.Executed != 0 || c.CacheHits != 1 {
		t.Errorf("warm report counts %+v, want no job submitted and one cache hit", c)
	}
}

// TestRequestEntryDistinctKeys: a report, the results bundle, a sampled
// report and an all-associativities report are four entries, and each
// warm rerun is served its own, not a neighbour's.
func TestRequestEntryDistinctKeys(t *testing.T) {
	dir := t.TempDir()
	base := engineTestOptions()
	sampled, assocs := base, base
	sampled.SampleRate = 0.01
	assocs.AllAssocs = true
	variants := []struct {
		name string
		o    ReportOptions
		kind string
	}{
		{"report", base, kindReport},
		{"results", base, KindResults},
		{"sampled", sampled, kindReport},
		{"all-assocs", assocs, kindReport},
	}
	run := func(o ReportOptions, kind string) (string, runner.Counts) {
		if kind == kindReport {
			return reportWith(t, EngineOptions{Workers: 4, CacheDir: dir}, o)
		}
		e, err := NewEngine(EngineOptions{Workers: 4, CacheDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		res, err := e.CollectResults(o)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := res.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String(), e.Counts()
	}
	keys := map[runner.Key]string{}
	cold := map[string]string{}
	for _, v := range variants {
		path, k := requestEntryPath(t, dir, v.o, v.kind)
		if other, ok := keys[k]; ok {
			t.Fatalf("%s and %s share the entry key %s", v.name, other, k)
		}
		keys[k] = v.name
		cold[v.name], _ = run(v.o, v.kind)
		if _, err := os.Stat(path); err != nil {
			t.Fatalf("%s stored no entry: %v", v.name, err)
		}
	}
	for _, v := range variants {
		out, c := run(v.o, v.kind)
		if out != cold[v.name] {
			t.Errorf("warm %s differs from its cold run", v.name)
		}
		if c.Executed != 0 || c.CacheHits != 1 {
			t.Errorf("warm %s counts %+v, want served by its one entry", v.name, c)
		}
	}
}

// TestRequestEntryNotStoredAfterLoss: a keep-going run that lost
// experiments stores no entry, so the next run computes what was lost.
func TestRequestEntryNotStoredAfterLoss(t *testing.T) {
	dir := t.TempDir()
	o := engineTestOptions()
	e, err := NewEngine(EngineOptions{
		Workers: 4, CacheDir: dir, KeepGoing: true,
		Fault: fault.New(1, fault.Rule{Pattern: "job:run *", Action: fault.Error, Nth: 1}),
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.CollectResults(o)
	e.Close()
	if !errors.Is(err, ErrFailures) || len(res.Failures) == 0 {
		t.Fatalf("faulted run lost nothing (err %v); the test tested nothing", err)
	}
	path, _ := requestEntryPath(t, dir, o, KindResults)
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("a run that lost experiments stored its results (stat: %v)", err)
	}
	again, c := collectWithEngine(t, dir, o)
	if c.Executed == 0 || len(again.Failures) != 0 {
		t.Errorf("rerun executed %d jobs with %d failures, want the lost ones recomputed", c.Executed, len(again.Failures))
	}
}

// TestRequestEntryDamagedIsAMiss: a truncated or bit-flipped request
// entry is a miss and is removed; the run is served from the job entries
// without executing anything. The rewrite is failed on purpose, so the
// entry's absence afterwards shows the removal.
func TestRequestEntryDamagedIsAMiss(t *testing.T) {
	damage := map[string]func([]byte) []byte{
		"truncated": func(b []byte) []byte { return b[:len(b)/2] },
		"flipped":   func(b []byte) []byte { b[len(b)-1] ^= 0x10; return b },
	}
	o := engineTestOptions()
	for name, bend := range damage {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			want, _ := collectWithEngine(t, dir, o)
			path, key := requestEntryPath(t, dir, o, KindResults)
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, bend(raw), 0o644); err != nil {
				t.Fatal(err)
			}
			e, err := NewEngine(EngineOptions{
				Workers: 4, CacheDir: dir,
				Fault: fault.New(1, fault.Rule{Pattern: "cache.put:" + key.String(), Action: fault.Error}),
			})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			got, err := e.CollectResults(o)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Error("results over a damaged request entry differ")
			}
			if c := e.Counts(); c.Executed != 0 || c.CacheHits < 2 {
				t.Errorf("counts %+v, want served from the job entries with nothing executed", c)
			}
			if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
				t.Errorf("damaged request entry was not removed (stat: %v)", err)
			}
		})
	}
}

// TestRequestEntryConcurrentEngines: two engines running the same report
// at once on one cold directory print the same bytes, and the entry they
// both store decodes.
func TestRequestEntryConcurrentEngines(t *testing.T) {
	dir := t.TempDir()
	o := engineTestOptions()
	out := make([]bytes.Buffer, 2)
	errs := make([]error, 2)
	engines := make([]*Engine, 2)
	for i := range engines {
		e, err := NewEngine(EngineOptions{Workers: 2, CacheDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		engines[i] = e
	}
	var wg sync.WaitGroup
	for i, e := range engines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = e.Report(&out[i], o)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(out[0].Bytes(), out[1].Bytes()) {
		t.Fatal("the two engines' reports differ")
	}
	_, key := requestEntryPath(t, dir, o, kindReport)
	if st, ok := runner.Lookup[storedResults](context.Background(), engines[0].r.NewGraph(), key); !ok || st.Results == nil || st.Figure5 == nil {
		t.Fatal("the stored report entry does not decode")
	}
}

// summaryOf runs req on e and returns its progress summary.
func summaryOf(e *Engine, req Request) (runner.ProgressEvent, error) {
	var mu sync.Mutex
	var sum runner.ProgressEvent
	_, err := e.Do(context.Background(), req, func(ev runner.ProgressEvent) {
		if ev.Status == "summary" {
			mu.Lock()
			sum = ev
			mu.Unlock()
		}
	})
	mu.Lock()
	defer mu.Unlock()
	return sum, err
}

// checkSummary asserts that a progress summary accounts for every job of
// its graph once: executed, served, failed or skipped.
func checkSummary(t *testing.T, who string, s runner.ProgressEvent) {
	t.Helper()
	if s.Jobs == 0 || s.Executed+s.Served+s.Failed+s.Skipped != s.Jobs {
		t.Errorf("%s: summary %d jobs = %d executed + %d served + %d failed + %d skipped, does not add up",
			who, s.Jobs, s.Executed, s.Served, s.Failed, s.Skipped)
	}
}

// TestSummaryAccountsEveryJob: a job served at run time — a recording
// handed over by its execution, or a result lease-shared from another
// engine — is counted as served, and a failed job only as failed, so
// the summary adds up to its jobs.
func TestSummaryAccountsEveryJob(t *testing.T) {
	req := Request{
		Kind: KindResults, Apps: []string{"fft", "lu"}, Procs: 4, ProcList: []int{4},
		CacheSizes: []int{16 << 10}, LineSizes: []int{64},
	}
	e, err := NewEngine(EngineOptions{Workers: 4, CacheDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := summaryOf(e, req)
	e.Close()
	if err != nil {
		t.Fatal(err)
	}
	checkSummary(t, "cold cached run", cold)
	if cold.Served < len(req.Apps) {
		t.Errorf("cold run served %d jobs, want at least its %d handed-over recordings", cold.Served, len(req.Apps))
	}

	dir := t.TempDir()
	sums := make([]runner.ProgressEvent, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := range sums {
		e, err := NewEngine(EngineOptions{
			Workers: 4, CacheDir: dir,
			Fault: fault.New(1, fault.Rule{Pattern: "job:exec *", Action: fault.Delay, Delay: 300 * time.Millisecond}),
		})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		wg.Add(1)
		go func() {
			defer wg.Done()
			sums[i], errs[i] = summaryOf(e, req)
		}()
	}
	wg.Wait()
	for i, s := range sums {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		checkSummary(t, "engine sharing a cold directory", s)
		if s.Executed == 0 && s.Served == 0 {
			t.Errorf("engine %d: empty summary %+v", i, s)
		}
	}

	rules, err := fault.Parse("error@1=job:exec *")
	if err != nil {
		t.Fatal(err)
	}
	e, err = NewEngine(EngineOptions{Workers: 4, Fault: fault.New(1, rules...)})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	kept := req
	kept.KeepGoing = true
	lossy, err := summaryOf(e, kept)
	if !errors.Is(err, ErrFailures) {
		t.Fatalf("keep-going run with a failed execution: err %v, want ErrFailures", err)
	}
	checkSummary(t, "keep-going run with a failed execution", lossy)
	if lossy.Failed != 1 {
		t.Errorf("keep-going run: %d failed jobs, want the 1 injected", lossy.Failed)
	}
}

// TestWarmEnginesLeaveNoJournal: a cold run removes its journal at a
// clean Close, and a run that journals no job event makes no journal
// file, so reruns do not grow the journal directory.
func TestWarmEnginesLeaveNoJournal(t *testing.T) {
	dir := t.TempDir()
	o := engineTestOptions()
	run := func() {
		e, err := NewEngine(EngineOptions{Workers: 2, CacheDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.CollectResults(o); err != nil {
			t.Fatal(err)
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if left := journalFiles(t, dir); len(left) != 0 {
		t.Fatalf("cold run left journal files %v, want none", left)
	}
	for range 50 {
		run()
	}
	if left := journalFiles(t, dir); len(left) != 0 {
		t.Errorf("50 warm engines left journal files %v, want none", left)
	}
}
