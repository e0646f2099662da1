// Package splash2 is a from-scratch Go reproduction of the SPLASH-2
// benchmark suite and of the characterization methodology of "The SPLASH-2
// Programs: Characterization and Methodological Considerations" (Woo,
// Ohara, Torrie, Singh, Gupta — ISCA 1995).
//
// It provides:
//
//   - a simulated cache-coherent shared-address-space multiprocessor
//     (directory-based Illinois protocol, PRAM timing, miss classification
//     and traffic accounting),
//   - all twelve SPLASH-2 programs implemented as real parallel algorithms
//     against that machine, and
//   - the characterization engine that regenerates every table and figure
//     of the paper's evaluation.
//
// # Quick start
//
//	m, _ := splash2.NewMachine(splash2.Config{Procs: 8})
//	r, _ := splash2.Build("fft", m, nil)
//	r.Run(m)
//	st := m.Snapshot()
//	fmt.Printf("miss rate %.2f%%\n", 100*st.Mem.MissRate())
//
// Every table and figure is one request kind. An Engine runs a Request —
// which kind, over which programs and machine parameters — and returns
// the Results sections that kind selects:
//
//	e, _ := splash2.NewEngine(splash2.EngineOptions{})
//	defer e.Close()
//	res, _ := e.Do(context.Background(), splash2.Request{
//		Kind: splash2.KindTraffic, Apps: []string{"fft"}, Scale: "sweep",
//	}, nil)
//	fmt.Println(res.Traffic[0][0].Remote())
//
// Characterize prints the whole evaluation and CollectResults returns it
// as data; see cmd/characterize for the full reproduction. Each
// full-memory experiment runs live, with the memory system simulated
// inline with the program; the cache-size and line-size sweeps (Figures 3
// and 7–8) replay one recorded trace per program instead of re-executing
// it.
package splash2

import (
	"io"
	"time"

	"splash2/internal/apps"
	_ "splash2/internal/apps/all"
	"splash2/internal/core"
	"splash2/internal/fault"
	"splash2/internal/mach"
	"splash2/internal/memsys"
	"splash2/internal/runner"
)

// Machine configuration and state. Zero-valued cache fields take the
// paper's defaults: 1 MB 4-way set-associative caches with 64-byte lines
// and 8-byte overhead packets.
type (
	// Config describes a simulated machine.
	Config = mach.Config
	// Machine is a simulated multiprocessor.
	Machine = mach.Machine
	// Stats is a measurement snapshot.
	Stats = mach.Stats
	// Counters are per-processor event counts (Table 1 columns).
	Counters = mach.Counters
	// MemStats are the memory-system counters (misses, traffic).
	MemStats = memsys.Stats
)

// Memory models for Config.MemModel.
const (
	// FullMem simulates caches, directory, and traffic.
	FullMem = mach.FullMem
	// CountOnly skips cache simulation (PRAM timing is unaffected).
	CountOnly = mach.CountOnly
)

// FullyAssoc selects a fully associative cache in Config.Assoc.
const FullyAssoc = memsys.FullyAssoc

// Miss kinds (indices into memsys.ProcStats.Misses).
const (
	MissCold     = memsys.MissCold
	MissTrue     = memsys.MissTrue
	MissFalse    = memsys.MissFalse
	MissCapacity = memsys.MissCapacity
)

// NewMachine creates a simulated multiprocessor.
func NewMachine(cfg Config) (*Machine, error) { return mach.New(cfg) }

// AggregateCounters sums per-processor counters.
func AggregateCounters(cs []Counters) Counters { return mach.Aggregate(cs) }

// Programs lists the registered SPLASH-2 program names.
func Programs() []string { return apps.Names() }

// Program returns a registered program's metadata.
func Program(name string) (*apps.App, error) { return apps.Get(name) }

// Runner is a configured program instance.
type Runner = apps.Runner

// Build constructs a program on a machine with option overrides (missing
// options take the program's scaled defaults).
func Build(name string, m *Machine, opts map[string]int) (Runner, error) {
	return apps.BuildWithDefaults(name, m, opts)
}

// The experiment engine, its requests and their results.
type (
	// Engine schedules experiments over a worker pool, an in-memory memo
	// and an optional on-disk result cache; see NewEngine.
	Engine = core.Engine
	// Request is one experiment spec: a kind plus its programs and
	// machine parameters (see Engine.Do).
	Request = core.Request
	// RunResult is one program execution under one configuration.
	RunResult = core.RunResult
	// Table1Row is the instruction-breakdown row of one program.
	Table1Row = core.Table1Row
	// SpeedupCurve is a Figure-1 speedup curve.
	SpeedupCurve = core.SpeedupCurve
	// SyncProfile is a Figure-2 synchronization profile.
	SyncProfile = core.SyncProfile
	// MissCurve is a Figure-3 miss-rate-vs-cache-size curve.
	MissCurve = core.MissCurve
	// Table2Row is a working-set summary row.
	Table2Row = core.Table2Row
	// TrafficPoint is a Figure-4/5/6 traffic breakdown point.
	TrafficPoint = core.TrafficPoint
	// Table3Row is a comm-to-comp growth row.
	Table3Row = core.Table3Row
	// LineSizePoint is a Figure-7/8 spatial-locality point.
	LineSizePoint = core.LineSizePoint
	// ReportOptions configures the full characterization.
	ReportOptions = core.ReportOptions
	// EngineOptions configures the experiment scheduler (workers, cache,
	// fault policy); ReportOptions embeds it.
	EngineOptions = core.EngineOptions
	// Scale selects default or sweep problem sizes.
	Scale = core.Scale
	// Results bundles a full characterization for machine-readable export.
	Results = core.Results
	// PruneAdvice is the §5 operating-point recommendation for one program.
	PruneAdvice = core.PruneAdvice
	// Trace is a recorded reference stream replayable through any cache
	// configuration (see RecordTrace / ReplayTrace): a v2 container, in
	// memory or on disk, streamed block by block.
	Trace = memsys.Trace
	// TraceSource is a replayable reference stream: a *Trace, or an
	// epoch window of one (see EpochWindow).
	TraceSource = memsys.TraceSource
	// TraceMeta is the one-pass stream summary of a TraceSource.
	TraceMeta = memsys.TraceMeta
	// TraceFile is a Trace opened over a file for block streaming and
	// epoch-window random access (see OpenTraceFile, EpochWindow); it is
	// the same type as Trace.
	TraceFile = memsys.TraceFile
	// MemConfig configures a memory system for trace replay.
	MemConfig = memsys.Config
	// StackProfile is a one-pass LRU stack-distance profile of a trace:
	// it answers the exact miss count of a fully-associative cache of any
	// profiled size without further replays (see StackDistances).
	StackProfile = memsys.StackProfile
	// SampledProfile is a SHARDS-sampled stack-distance profile: the
	// estimated twin of StackProfile, with confidence bands (see
	// SampledStackDistances).
	SampledProfile = memsys.SampledProfile
	// SampledOptions configures the sampled estimator (rate, seed,
	// exact-window width).
	SampledOptions = memsys.SampledOptions
	// SampledCurve is one program's estimated working-set curve with
	// bands (request kind KindWorkingSetsSampled).
	SampledCurve = core.SampledCurve
)

// Request kinds: one per paper table or figure, plus the full bundle.
const (
	KindTable1             = core.KindTable1             // Table 1: instruction breakdown
	KindSpeedups           = core.KindSpeedups           // Figure 1: PRAM speedups
	KindSync               = core.KindSync               // Figure 2: synchronization profiles
	KindWorkingSets        = core.KindWorkingSets        // Figure 3, Table 2 and pruning advice
	KindWorkingSetsSampled = core.KindWorkingSetsSampled // Figure 3 by sampled reuse distances
	KindTraffic            = core.KindTraffic            // Figure 4: traffic breakdowns
	KindTable3             = core.KindTable3             // Table 3: comm-to-comp growth
	KindLineSize           = core.KindLineSize           // Figures 7–8: line-size sweeps
	KindResults            = core.KindResults            // every section above but the sampled one
)

// NewEngine creates an experiment engine; Close it when done so a
// cache-backed run journal records a clean end.
func NewEngine(o EngineOptions) (*Engine, error) { return core.NewEngine(o) }

// DefaultExactLines is the default exact-window width of the sampled
// estimator: capacities up to DefaultExactLines cache lines are answered
// exactly rather than estimated.
const DefaultExactLines = memsys.DefaultExactLines

// Scales.
const (
	DefaultScale = core.DefaultScale
	SweepScale   = core.SweepScale
	// PaperScale selects the paper's published problem sizes (slow).
	PaperScale = core.PaperScale
)

// Suite is the canonical program order of the paper's tables.
var Suite = core.Suite

// RunProgram executes one program on a fresh machine and returns its
// measurement snapshot.
func RunProgram(name string, cfg Config, opts map[string]int) (*RunResult, error) {
	return core.Run(name, cfg, opts)
}

// RunProgramVerified additionally runs the program's correctness check.
func RunProgramVerified(name string, cfg Config, opts map[string]int) (*RunResult, error) {
	return core.RunVerified(name, cfg, opts)
}

// Table2 derives working-set rows from measured 4-way miss curves.
func Table2(curves []MissCurve) []Table2Row { return core.Table2(curves) }

// DefaultCacheSizes returns the paper's 1 KB–1 MB sweep points.
func DefaultCacheSizes() []int { return core.DefaultCacheSizes() }

// DefaultCacheDir returns the default on-disk result-cache root
// (<user cache dir>/splash2). Experiment drivers use it when
// ReportOptions.CacheDir is set; cached results carry the suite version
// in their keys and are invalidated by bumping it.
func DefaultCacheDir() (string, error) { return core.DefaultCacheDir() }

// DefaultLineSizes returns the paper's 8 B–256 B sweep points.
func DefaultLineSizes() []int { return core.DefaultLineSizes() }

// Crash consistency and multi-process sharing. Runs with a cache
// directory hold cross-process work leases (so concurrent processes
// coalesce expensive jobs instead of duplicating them) and append a
// durable run journal under <cache-dir>/journal. After a crash, Resume
// reports what the dead run had finished and reclaims its leases and
// temp artifacts; the result cache then supplies everything it
// completed.
type (
	// ResumeReport describes what a resume pass found and reclaimed.
	ResumeReport = core.ResumeReport
	// RunSummary condenses one run journal (crash forensics).
	RunSummary = runner.RunSummary
)

// DefaultLeaseTTL is the default cross-process work-lease expiry
// (ReportOptions.LeaseTTL = 0); a crashed lease holder delays
// contenders on its key by at most this long.
const DefaultLeaseTTL = runner.DefaultLeaseTTL

// Resume scans a cache directory for crashed runs: dead journals are
// reported and marked resumed, and orphaned leases/temp/spill files are
// swept. Run the characterization normally afterwards — cache hits are
// the resume.
func Resume(cacheDir string, leaseTTL time.Duration) (*ResumeReport, error) {
	return core.Resume(cacheDir, leaseTTL)
}

// Fault tolerance and failure semantics. A characterization run in
// keep-going mode (ReportOptions.KeepGoing) completes past failed
// experiments: lost rows render as FAILED(...) placeholders, and the
// run ends with a failure manifest plus an ErrFailures-wrapped error.
type (
	// FaultInjector is the deterministic, rule-based fault injector
	// threaded through experiment execution and cache/trace I/O
	// (ReportOptions.Fault). Chaos tests and the -fault CLI flags use it.
	FaultInjector = fault.Injector
	// FaultRule describes one injection: a wildcard pattern over
	// operation names ("job:<label>", "cache.get:<key>",
	// "cache.put:<key>", "trace.read", "trace.read.footer",
	// "trace.read.block:<i>", "lease.acquire:<key>", "journal.append",
	// "sample.estimate:<app>"), an action (error, panic, delay, short
	// read, crash) and an occurrence.
	FaultRule = fault.Rule
	// FailureRecord is one lost experiment in a failure manifest.
	FailureRecord = core.FailureRecord
	// FailureManifest is the end-of-run account of lost experiments.
	FailureManifest = core.FailureManifest
)

// ErrFailures marks a keep-going characterization that completed but
// lost experiments; detect it with errors.Is to distinguish degraded
// completion from a hard error.
var ErrFailures = core.ErrFailures

// NewFaultInjector builds a deterministic injector: the seed chooses
// the firing occurrence of rules with a negative Nth.
func NewFaultInjector(seed int64, rules ...FaultRule) *FaultInjector {
	return fault.New(seed, rules...)
}

// ParseFaultRules parses the compact rule syntax of the -fault CLI
// flag: "action[(arg)][@nth]=pattern", ';'-separated — e.g.
// "error=job:run fft*;delay(50ms)@2=job:wsweep*".
func ParseFaultRules(spec string) ([]FaultRule, error) { return fault.Parse(spec) }

// Characterize runs the complete characterization (all tables and
// figures), writing formatted results to w.
func Characterize(w io.Writer, o ReportOptions) error { return core.Report(w, o) }

// CollectResults runs the full characterization and returns raw data for
// JSON/CSV export — the machine-readable twin of Characterize.
func CollectResults(o ReportOptions) (*Results, error) { return core.CollectResults(o) }

// Prune derives the §5 operating-point advice from a measured miss curve:
// which cache sizes are knees, which are representative, which redundant.
func Prune(c MissCurve) PruneAdvice { return core.Prune(c) }

// BandwidthMBs converts a traffic point into the §6 per-processor
// bandwidth estimate at the given issue rate (ops/s).
func BandwidthMBs(t TrafficPoint, rateHz float64) float64 { return core.BandwidthMBs(t, rateHz) }

// RecordTrace executes one program while capturing its global reference
// stream; the trace replays through arbitrary cache configurations.
func RecordTrace(app string, procs int, opts map[string]int) (*Trace, Stats, error) {
	return core.RecordApp(app, procs, opts)
}

// ReplayTrace feeds a recorded reference stream through a fresh memory
// system.
func ReplayTrace(src TraceSource, cfg MemConfig) (MemStats, error) { return memsys.Replay(src, cfg) }

// ReplayTraceMulti feeds one recorded reference stream through a fresh
// memory system per configuration in a single fused pass: the stream is
// decoded once for the whole sweep, block by block with O(block buffer)
// peak memory. The results are, position by position, exactly what
// per-configuration ReplayTrace calls return.
func ReplayTraceMulti(src TraceSource, cfgs []MemConfig) ([]MemStats, error) {
	return memsys.ReplayMulti(src, cfgs)
}

// StackDistances computes a one-pass Mattson stack-distance profile of a
// recorded reference stream at the given line size: one traversal yields
// the exact miss counts of every fully-associative LRU cache size up to
// maxCacheSize, coherence invalidations included.
func StackDistances(src TraceSource, lineSize, maxCacheSize int) (*StackProfile, error) {
	return memsys.StackDistances(src, lineSize, maxCacheSize)
}

// SampledStackDistances estimates the stack-distance profile from a
// spatially-hashed sample of the stream (SHARDS): miss counts for every
// fully-associative size up to maxCacheSize, with 95% confidence bands,
// at a fraction of the exact pass's cost. StackDistances is this pass at
// rate 1, so there the estimate is the exact count.
func SampledStackDistances(src TraceSource, lineSize, maxCacheSize int, opt SampledOptions) (*SampledProfile, error) {
	return memsys.SampledStackDistances(src, lineSize, maxCacheSize, opt)
}

// EpochWindow restricts a v2 trace to the synchronization epochs
// [lo, hi] stamped on its blocks: the returned view replays only those
// epochs' references, reset markers excluded. Blocks are selected
// through the index, so out-of-range blocks are never read from disk.
func EpochWindow(tf *TraceFile, lo, hi uint64) (TraceSource, error) {
	return memsys.EpochWindow(tf, lo, hi)
}

// OpenTraceFile opens an on-disk v2 trace for out-of-core streaming:
// the index footer is parsed at open, event blocks stream from disk
// during replay. Convert a v1 trace with `trace convert`.
func OpenTraceFile(path string) (*TraceFile, error) { return memsys.OpenTraceFile(path, nil) }
