package main

import (
	"fmt"
	"os"
	"sync"
	"syscall"
	"time"

	"splash2"
)

// The four workloads. Each stands for one kind of user and was chosen for
// the layers it leaves idle as much as for the ones it loads, so that an
// optimisation has a workload that exercises it and one that bypasses it
// (README.md has the layer table).
const (
	reportCold = "report-cold" // first-time user: apps+mach execute, memsys simulates, runner stores
	reportWarm = "report-warm" // repeat user: runner cache reads + core rendering only
	traceSweep = "trace-sweep" // trace analyst: memsys decode + read-only replay only
	serveMix   = "serve-mix"   // splashd client: serve + request keys + engine memo on hits
)

var workloads = []string{reportCold, reportWarm, traceSweep, serveMix}

// traceSpec names one recording: a program and its option overrides (nil
// is the program's default problem size).
type traceSpec struct {
	app  string
	opts map[string]int
}

// config fixes the amount of work. Every count is a constant so that two
// commits measure the same thing; full is what BENCHMARK.json measures and
// tiny is what bench_test.go drives.
type config struct {
	apps      []string      // report-* programs; nil is the whole suite
	scale     splash2.Scale // report-* problem sizes
	procs     int           // report-* processor count; 0 is the paper's 32
	procList  []int         // report-* scaling points; nil is 1..32
	minCold   int           // least timed report-cold iterations
	minWarm   int
	minSweep  int
	minRounds int // least timed serve-mix hot rounds

	sweepTraces []traceSpec // trace-sweep recordings
	sweepProcs  int
	sweepSetups int // times trace-sweep records and writes its traces

	serveApps   []string // serve-mix catalogue: the 8 single-figure kinds × these
	serveProcs  int
	servePList  []int
	coldPasses  int // serve-mix set-ups (fresh server + directory + catalogue walk)
	hotRequests int // requests in one hot round

	probeTraces  []traceSpec // the fixed traces every memsys/mach probe runs over
	probeSamples int
	probeJobs    int // jobs in one scheduler-probe graph
	probeOps     int // operations in one cache/journal/handler probe sample
}

var full = config{
	scale:   splash2.DefaultScale,
	minCold: 3, minWarm: 100, minSweep: 5, minRounds: 3,
	// lu, ocean and radix synchronise with barriers only, so their
	// recordings are byte-identical from run to run (README.md,
	// "Determinism"); a lock-ordered program would change the work measured.
	sweepTraces: []traceSpec{{app: "lu"}, {app: "ocean"}, {app: "radix"}},
	sweepProcs:  8, sweepSetups: 5,
	serveApps:  splash2.Suite,
	serveProcs: 8, servePList: []int{1, 2, 4, 8},
	coldPasses: 5, hotRequests: 10000,
	// A keeps continuity with the legacy BENCH_*.json numbers; B has the
	// larger footprint. barnes is left out because its stream follows lock
	// order and its counts would not repeat.
	probeTraces:  []traceSpec{{"fft", map[string]int{"n": 4096}}, {app: "ocean"}},
	probeSamples: 5, probeJobs: 1000, probeOps: 200,
}

var tiny = config{
	apps: []string{"fft"}, scale: splash2.SweepScale, procs: 4, procList: []int{1, 4},
	minCold: 1, minWarm: 2, minSweep: 2, minRounds: 2,
	sweepTraces: []traceSpec{{"fft", map[string]int{"n": 256}}},
	sweepProcs:  4, sweepSetups: 1,
	serveApps:  []string{"fft"},
	serveProcs: 4, servePList: []int{1, 4},
	coldPasses: 1, hotRequests: 200,
	probeTraces:  []traceSpec{{"fft", map[string]int{"n": 1024}}}, // the least n that 32 processors divide
	probeSamples: 1, probeJobs: 50, probeOps: 20,
}

// stableApps are the barrier-only programs whose simulated statistics
// repeat exactly; digests cover only them (README.md, "Determinism").
var stableApps = map[string]bool{"fft": true, "lu": true, "ocean": true, "radix": true}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// bench is the state of one run of one workload.
type bench struct {
	cfg   config
	seed  int64
	dir   string  // scratch root inside the checkout, removed when the run ends
	tr    *tracer // nil on an end-to-end run
	nproc int

	mu        sync.Mutex
	attempted int
	failed    int
	failures  []string
	layer     map[string]metric // per-layer metrics of a traced run
}

// count records n attempted operations of which bad failed.
func (b *bench) count(n, bad int, format string, args ...any) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.attempted += n
	b.failed += bad
	if bad > 0 && len(b.failures) < 32 {
		b.failures = append(b.failures, fmt.Sprintf(format, args...))
	}
}

func (b *bench) check(ok bool, format string, args ...any) bool {
	bad := 0
	if !ok {
		bad = 1
	}
	b.count(1, bad, format, args...)
	return ok
}

func (b *bench) ok(err error, what string) bool { return b.check(err == nil, "%s: %v", what, err) }

func (b *bench) set(name string, value float64, unit string) {
	b.mu.Lock()
	b.layer[name] = metric{value, unit}
	b.mu.Unlock()
}

// tempDir makes a fresh directory under the run's scratch root.
func (b *bench) tempDir() string {
	d, err := os.MkdirTemp(b.dir, "d")
	if err != nil {
		panic(err) // the scratch root was just created by this process
	}
	return d
}

// samples are the raw end-to-end measurements of one run.
type samples struct{ setup, wall, cpu []float64 }

// timed runs iter at least min times and until seconds have passed,
// recording each iteration's wall and process CPU time.
func (s *samples) timed(min int, seconds float64, iter func(i int)) {
	start := time.Now()
	for i := 0; i < min || time.Since(start).Seconds() < seconds; i++ {
		c0, t0 := cpuSeconds(), time.Now()
		iter(i)
		s.wall = append(s.wall, time.Since(t0).Seconds())
		s.cpu = append(s.cpu, cpuSeconds()-c0)
	}
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return ru
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	ru := rusage()
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}
