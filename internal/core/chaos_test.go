package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"splash2/internal/fault"
)

// The chaos suite drives full characterizations through the
// deterministic fault injector and checks the fault-tolerance
// invariant: injected faults may lose individual experiments, but they
// never change the numeric results of the experiments that survive, and
// the failure manifest accounts for exactly the jobs that were hit.

// chaosSeeds returns the injection seeds: the CHAOS_SEED environment
// variable (comma-separated) when set — the CI chaos matrix sets one
// seed per job — else {1, 2, 3}.
func chaosSeeds(t *testing.T) []int64 {
	env := os.Getenv("CHAOS_SEED")
	if env == "" {
		return []int64{1, 2, 3}
	}
	var out []int64
	for _, s := range strings.Split(env, ",") {
		n, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
		if err != nil {
			t.Fatalf("bad CHAOS_SEED %q: %v", env, err)
		}
		out = append(out, n)
	}
	return out
}

// chaosBaseline caches the fault-free reference characterization; every
// chaos run compares its survivors against it.
var chaosBaseline struct {
	once sync.Once
	res  *Results
	err  error
}

func chaosClean(t *testing.T) *Results {
	t.Helper()
	chaosBaseline.once.Do(func() {
		e, err := NewEngine(EngineOptions{Workers: 4})
		if err != nil {
			chaosBaseline.err = err
			return
		}
		defer e.Close()
		chaosBaseline.res, chaosBaseline.err = e.CollectResults(engineTestOptions())
	})
	if chaosBaseline.err != nil {
		t.Fatalf("clean baseline run failed: %v", chaosBaseline.err)
	}
	return chaosBaseline.res
}

// survivorIndex maps every non-failed row of a characterization to its
// JSON encoding, keyed by the row's identity. Byte-equal encodings mean
// byte-equal exported results.
func survivorIndex(t *testing.T, res *Results) map[string][]byte {
	t.Helper()
	idx := map[string][]byte{}
	add := func(key string, v any) {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if _, dup := idx[key]; dup {
			t.Fatalf("duplicate survivor key %s", key)
		}
		idx[key] = b
	}
	for _, r := range res.Table1 {
		if r.Failed == "" {
			add("table1/"+r.App, r)
		}
	}
	for _, c := range res.Speedups {
		if c.Failed == "" {
			add("speedup/"+c.App, c)
		}
	}
	for _, s := range res.Sync {
		if s.Failed == "" {
			add("sync/"+s.App, s)
		}
	}
	for _, c := range res.MissCurves {
		if c.Failed == "" {
			add(fmt.Sprintf("miss/%s/%d", c.App, c.Assoc), c)
		}
	}
	for _, r := range res.Table2 {
		add("table2/"+r.App, r)
	}
	for _, a := range res.PruneAdvice {
		add("prune/"+a.App, a)
	}
	for _, pts := range res.Traffic {
		for _, p := range pts {
			if p.Failed == "" {
				add(fmt.Sprintf("traffic/%s/%d/%d", p.App, p.Procs, p.CacheSize), p)
			}
		}
	}
	for _, r := range res.Table3 {
		if r.Failed == "" {
			add("table3/"+r.App, r)
		}
	}
	for _, pts := range res.LineSize {
		for _, p := range pts {
			if p.Failed == "" {
				add(fmt.Sprintf("lsz/%s/%d", p.App, p.LineSize), p)
			}
		}
	}
	return idx
}

// chaosCase is one rule set of the chaos matrix.
type chaosCase struct {
	name    string
	timeout time.Duration
	rules   []fault.Rule
	// warmCache pre-populates the run's cache directory with a clean
	// characterization so cache-read faults have real entries to corrupt.
	// The request's stored results are dropped from it, or the run would
	// read that one entry and no job or job entry would meet a fault.
	warmCache bool
	// wantFailures asserts the rule set actually lost experiments — a
	// guard against rules that silently never fire.
	wantFailures bool
}

func chaosCases() []chaosCase {
	return []chaosCase{
		// A non-transient error on a seed-chosen job: the job fails, its
		// dependents are skipped, everything else completes.
		{name: "error", wantFailures: true, rules: []fault.Rule{
			{Pattern: "job:*", Action: fault.Error, Nth: -6},
		}},
		// An injected panic must be recovered into a structured failure,
		// never crash the process.
		{name: "panic", wantFailures: true, rules: []fault.Rule{
			{Pattern: "job:*", Action: fault.Panic, Nth: -4},
		}},
		// A wedged job (long stall against a short attempt timeout) must
		// be abandoned without hanging the pool.
		{name: "timeout", timeout: 4 * time.Second, wantFailures: true, rules: []fault.Rule{
			{Pattern: "job:run *", Action: fault.Delay, Nth: -3, Delay: time.Minute},
		}},
		// Truncated cache entries are misses: the experiments recompute
		// and nothing fails.
		{name: "shortread", warmCache: true, rules: []fault.Rule{
			{Pattern: "cache.get:*", Action: fault.ShortRead, Keep: 7},
		}},
		// All fault classes at once, against a warm cache: cache faults
		// force recomputation, job faults hit the recomputed jobs. Which
		// rules fire depends on the seed; the Fired log is ground truth.
		{name: "mixed", warmCache: true, rules: []fault.Rule{
			{Pattern: "cache.get:*", Action: fault.Error, Nth: -2},
			{Pattern: "cache.get:*", Action: fault.ShortRead, Nth: -3, Keep: 3},
			{Pattern: "job:*", Action: fault.Delay, Nth: 1, Delay: 20 * time.Millisecond},
			{Pattern: "job:*", Action: fault.Error, Nth: -2},
			{Pattern: "job:*", Action: fault.Panic, Nth: -3},
		}},
	}
}

// TestChaosKeepGoingInvariants runs every chaos rule set at every seed
// in keep-going mode and checks the three core invariants: degraded
// completion (never a hard error), survivor results byte-identical to
// the fault-free run, and a failure manifest listing exactly the
// injected jobs.
func TestChaosKeepGoingInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite runs full characterizations")
	}
	clean := survivorIndex(t, chaosClean(t))
	for _, tc := range chaosCases() {
		for _, seed := range chaosSeeds(t) {
			t.Run(fmt.Sprintf("%s/seed=%d", tc.name, seed), func(t *testing.T) {
				dir := t.TempDir()
				o := engineTestOptions()
				if tc.warmCache {
					warm, err := NewEngine(EngineOptions{Workers: 4, CacheDir: dir})
					if err != nil {
						t.Fatal(err)
					}
					if _, err := warm.CollectResults(o); err != nil {
						t.Fatal(err)
					}
					warm.Close()
					entry, _ := requestEntryPath(t, dir, o, KindResults)
					if err := os.Remove(entry); err != nil {
						t.Fatal(err)
					}
				}
				inj := fault.New(seed, tc.rules...)
				e, err := NewEngine(EngineOptions{
					Workers:   4,
					CacheDir:  dir,
					KeepGoing: true,
					Timeout:   tc.timeout,
					Fault:     inj,
				})
				if err != nil {
					t.Fatal(err)
				}
				res, err := e.CollectResults(o)
				checkChaosRun(t, inj, res, err, clean, tc.timeout > 0)
				if len(inj.Fired()) == 0 {
					t.Fatal("no rule fired; the case tested nothing")
				}
				if tc.wantFailures && len(res.Failures) == 0 {
					t.Fatal("rule set lost no experiments; the case tested nothing")
				}
			})
		}
	}
}

// checkChaosRun asserts the keep-going invariants on one chaos run.
func checkChaosRun(t *testing.T, inj *fault.Injector, res *Results, err error, clean map[string][]byte, timeoutSet bool) {
	t.Helper()

	// Degraded completion: the only permitted error is the ErrFailures
	// marker, and it appears exactly when experiments were lost.
	if err != nil && !errors.Is(err, ErrFailures) {
		t.Fatalf("keep-going run returned a hard error: %v", err)
	}
	if res == nil {
		t.Fatal("keep-going run returned no results")
	}
	if (len(res.Failures) > 0) != (err != nil) {
		t.Fatalf("failure marker and manifest disagree: err=%v, %d failure records", err, len(res.Failures))
	}

	// Survivors must be byte-identical to the fault-free run.
	for key, b := range survivorIndex(t, res) {
		want, ok := clean[key]
		if !ok {
			t.Errorf("survivor %s does not exist in the clean run", key)
			continue
		}
		if !bytes.Equal(b, want) {
			t.Errorf("survivor %s diverges from the clean run:\n got %s\nwant %s", key, b, want)
		}
	}

	// The manifest must list exactly the injected jobs: every directly
	// failed record corresponds to a job-level error/panic firing (or a
	// delay firing when an attempt timeout was armed), and vice versa.
	expect := map[string]bool{}
	for _, f := range inj.Fired() {
		label, ok := strings.CutPrefix(f.Op, "job:")
		if !ok {
			continue // cache/trace firings degrade to misses, not failures
		}
		switch f.Action {
		case fault.Error, fault.Panic:
			expect[label] = true
		case fault.Delay:
			if timeoutSet {
				expect[label] = true
			}
		}
	}
	got := map[string]bool{}
	for _, rec := range res.Failures {
		if rec.Skipped {
			if !strings.Contains(rec.Cause, "dependency") {
				t.Errorf("skipped record %q has cause %q, want a dependency failure", rec.Label, rec.Cause)
			}
			continue
		}
		got[rec.Label] = true
		if timeoutSet && !rec.TimedOut {
			t.Errorf("failure %q not marked timed out under a delay rule", rec.Label)
		}
	}
	for label := range expect {
		if !got[label] {
			t.Errorf("injected fault at job %q missing from the failure manifest", label)
		}
	}
	for label := range got {
		if !expect[label] {
			t.Errorf("manifest lists %q, but no fault was injected there", label)
		}
	}
}

// TestChaosFailFast: without -keep-going an injected fault must stop
// the characterization with a structured JobError, not a panic.
func TestChaosFailFast(t *testing.T) {
	inj := fault.New(1, fault.Rule{Pattern: "job:*", Action: fault.Panic, Nth: 1})
	e, err := NewEngine(EngineOptions{Workers: 4, Fault: inj})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	_, err = e.CollectResults(engineTestOptions())
	if err == nil {
		t.Fatal("fail-fast run with an injected panic reported success")
	}
	if !strings.Contains(err.Error(), "injected panic") {
		t.Fatalf("error does not surface the injected panic: %v", err)
	}
}
