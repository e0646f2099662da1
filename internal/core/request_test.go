package core

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"

	"splash2/internal/fault"
	"splash2/internal/mach"
	"splash2/internal/runner"
)

func TestRequestCanonicalDefaults(t *testing.T) {
	cr, err := Request{Kind: KindTable1}.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cr.Apps, Suite) {
		t.Errorf("apps = %v, want full suite", cr.Apps)
	}
	if cr.Procs != 32 || cr.Scale != "sweep" {
		t.Errorf("defaults = procs %d scale %q", cr.Procs, cr.Scale)
	}
	if !reflect.DeepEqual(cr.ProcList, []int{1, 2, 4, 8, 16, 32}) {
		t.Errorf("procList = %v", cr.ProcList)
	}
	if cr.CacheSize != 1<<20 || len(cr.CacheSizes) == 0 || len(cr.LineSizes) == 0 {
		t.Errorf("cache defaults = %d %v %v", cr.CacheSize, cr.CacheSizes, cr.LineSizes)
	}
	// Idempotent: canonicalizing a canonical request is a no-op.
	cr2, err := cr.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cr, cr2) {
		t.Errorf("Canonical not idempotent:\n%+v\n%+v", cr, cr2)
	}
}

func TestRequestCanonicalNormalizesProcList(t *testing.T) {
	cr, err := Request{Kind: KindSpeedups, ProcList: []int{8, 2, 8, 1}}.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cr.ProcList, []int{1, 2, 8}) {
		t.Errorf("procList = %v, want sorted dedup [1 2 8]", cr.ProcList)
	}
}

func TestRequestCanonicalRejects(t *testing.T) {
	bad := []struct {
		name string
		req  Request
		want string
	}{
		{"no kind", Request{}, "missing kind"},
		{"bad kind", Request{Kind: "figure9"}, "unknown kind"},
		{"bad app", Request{Kind: KindTable1, Apps: []string{"doom"}}, "doom"},
		{"dup app", Request{Kind: KindTable1, Apps: []string{"fft", "fft"}}, "duplicate app"},
		{"procs high", Request{Kind: KindTable1, Procs: 128}, "out of range"},
		{"procs neg", Request{Kind: KindTable1, Procs: -1}, "out of range"},
		{"plist high", Request{Kind: KindSpeedups, ProcList: []int{1, 65}}, "out of range"},
		{"bad scale", Request{Kind: KindTable1, Scale: "huge"}, "unknown scale"},
		{"cache npo2", Request{Kind: KindTraffic, CacheSize: 3000}, "power of two"},
		{"line huge", Request{Kind: KindLineSize, LineSizes: []int{1 << 20}}, "power of two"},
		{"assoc npo2", Request{Kind: KindWorkingSets, Assocs: []int{3}}, "associativity"},
		{"opts multi-app", Request{Kind: KindTraffic, Opts: map[string]int{"m": 8}}, "single-app"},
	}
	for _, tc := range bad {
		if _, err := tc.req.Canonical(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want contains %q", tc.name, err, tc.want)
		}
	}
}

func TestRequestKeyStability(t *testing.T) {
	// Equivalent spellings — defaults elided vs. explicit, procList
	// unsorted — address the same content.
	a := Request{Kind: KindSpeedups, ProcList: []int{4, 1, 2}}
	b := Request{Kind: KindSpeedups, ProcList: []int{1, 2, 4}, Procs: 32, Scale: "sweep"}
	if a.Key() != b.Key() {
		t.Error("equivalent requests hash differently")
	}
	if a.ETag() != b.ETag() {
		t.Error("equivalent requests carry different ETags")
	}
	// Any semantic difference must change the key.
	c := Request{Kind: KindSpeedups, ProcList: []int{1, 2, 8}}
	if a.Key() == c.Key() {
		t.Error("different requests collide")
	}
	d := Request{Kind: KindSpeedups, ProcList: []int{4, 1, 2}, Scale: "default"}
	if a.Key() == d.Key() {
		t.Error("scale change did not change key")
	}
	if tag := a.ETag(); !strings.HasPrefix(tag, `"`) || !strings.HasSuffix(tag, `"`) {
		t.Errorf("ETag %q not a quoted strong validator", tag)
	}
}

func TestRequestKeyPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Key of invalid request did not panic")
		}
	}()
	Request{Kind: "nope"}.Key()
}

func TestParseNamesRoundTrip(t *testing.T) {
	for _, name := range []string{"sweep", "default", "paper"} {
		s, err := ParseScale(name)
		if err != nil {
			t.Fatal(err)
		}
		if got := ScaleName(s); got != name {
			t.Errorf("ScaleName(ParseScale(%q)) = %q", name, got)
		}
	}
}

// TestEngineDoMatchesDirectCalls pins the section table: each single
// kind's sections deep-equal the same sections of Do(results), which is
// what lets splashd answer any kind with the bytes the CLI would print.
func TestEngineDoMatchesDirectCalls(t *testing.T) {
	e, _ := NewEngine(EngineOptions{Workers: 4})
	req := Request{
		Apps: []string{"fft", "lu"}, Procs: 4, ProcList: []int{1, 4},
		CacheSizes: []int{16 << 10, 64 << 10}, LineSizes: []int{32, 64},
	}
	do := func(kind string) reflect.Value {
		req.Kind = kind
		res, err := e.Do(context.Background(), req, nil)
		if err != nil {
			t.Fatalf("Do(%s): %v", kind, err)
		}
		return reflect.ValueOf(*res)
	}
	full := do(KindResults)
	for _, kind := range Kinds() {
		// results holds every kind but the sampled estimate.
		if kind == KindResults || kind == KindWorkingSetsSampled {
			continue
		}
		got, sections := do(kind), 0
		for i := 0; i < got.NumField(); i++ {
			f := got.Field(i)
			if !f.CanInterface() || f.IsZero() || got.Type().Field(i).Name == "Procs" {
				continue
			}
			sections++
			if !reflect.DeepEqual(f.Interface(), full.Field(i).Interface()) {
				t.Errorf("Do(%s).%s differs from Do(results)", kind, got.Type().Field(i).Name)
			}
		}
		if sections == 0 {
			t.Errorf("Do(%s) filled no section", kind)
		}
	}
}

// TestRequestOptsReachEverySection: a single-app request's Opts reach the
// runs of every kind, results included, through one override function.
func TestRequestOptsReachEverySection(t *testing.T) {
	e, _ := NewEngine(EngineOptions{Workers: 2})
	req := Request{
		Kind: KindTable1, Apps: []string{"fft"}, Procs: 4, ProcList: []int{1, 4},
		CacheSizes: []int{16 << 10}, LineSizes: []int{64},
	}
	plain, err := e.Do(context.Background(), req, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Opts = map[string]int{"n": 4096}
	withOpts, err := e.Do(context.Background(), req, nil)
	if err != nil {
		t.Fatal(err)
	}
	run, err := Run("fft", mach.Config{Procs: 4, MemModel: mach.CountOnly}, req.Opts)
	if err != nil {
		t.Fatal(err)
	}
	got := withOpts.Table1[0].Instr
	if got == plain.Table1[0].Instr {
		t.Errorf("opts n=4096 left Instr at the default row's %d", got)
	}
	if want := mach.Aggregate(run.Stats.Procs).Instr; got != want {
		t.Errorf("Do(table1, n=4096).Instr = %d, want %d from Run", got, want)
	}

	req.Kind = KindResults
	all, err := e.Do(context.Background(), req, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(all.Table1, withOpts.Table1) {
		t.Error("Do(results) ignores opts")
	}
}

func TestEngineDoWorkingSetsFillsTable2(t *testing.T) {
	e, _ := NewEngine(EngineOptions{Workers: 4})
	res, err := e.Do(context.Background(), Request{
		Kind: KindWorkingSets, Apps: []string{"radix"}, Procs: 4,
		CacheSizes: []int{1 << 10, 1 << 12, 1 << 14}, Scale: "default",
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.MissCurves) == 0 {
		t.Fatal("no miss curves")
	}
	if len(res.Table2) == 0 || len(res.PruneAdvice) == 0 {
		t.Errorf("Table2 (%d rows) / PruneAdvice (%d rows) not derived", len(res.Table2), len(res.PruneAdvice))
	}
}

func TestEngineDoProgressAndScoping(t *testing.T) {
	e, _ := NewEngine(EngineOptions{Workers: 4})
	var mu sync.Mutex
	var events []runner.ProgressEvent
	sink := func(ev runner.ProgressEvent) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	}
	if _, err := e.Do(context.Background(), Request{Kind: KindSync, Apps: []string{"barnes"}, Procs: 2, Scale: "default"}, sink); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(events) == 0 {
		t.Fatal("no progress events delivered")
	}
	var summaries int
	for _, ev := range events {
		if ev.Status == "summary" {
			summaries++
		}
	}
	if summaries == 0 {
		t.Error("no summary event delivered")
	}
}

func TestEngineDoKeepGoingManifest(t *testing.T) {
	rules, err := fault.Parse("error@1=job:run fft*")
	if err != nil {
		t.Fatal(err)
	}
	e, _ := NewEngine(EngineOptions{Workers: 4, Fault: fault.New(1, rules...)})
	res, err := e.Do(context.Background(), Request{
		Kind: KindTable1, Apps: []string{"fft", "radix"}, Procs: 2,
		Scale: "default", KeepGoing: true,
	}, nil)
	if !errors.Is(err, ErrFailures) {
		t.Fatalf("err = %v, want ErrFailures", err)
	}
	if res == nil || len(res.Failures) == 0 {
		t.Fatal("degraded result carries no failure manifest")
	}
	if len(res.Table1) == 0 {
		t.Error("keep-going lost the surviving rows")
	}

	// A second, clean request on the same engine must not inherit the
	// first request's failures: scope isolation.
	res2, err := e.Do(context.Background(), Request{
		Kind: KindTable1, Apps: []string{"radix"}, Procs: 2,
		Scale: "default", KeepGoing: true,
	}, nil)
	if err != nil {
		t.Fatalf("clean scoped request: %v", err)
	}
	if len(res2.Failures) > 0 {
		t.Errorf("clean request inherited %d failures from sibling scope", len(res2.Failures))
	}
}

func TestEngineDoContextCancel(t *testing.T) {
	e, _ := NewEngine(EngineOptions{Workers: 2})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.Do(ctx, Request{Kind: KindTable1, Apps: []string{"fft"}, Procs: 2, Scale: "default"}, nil); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}
