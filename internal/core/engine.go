package core

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"splash2/internal/fault"
	"splash2/internal/mach"
	"splash2/internal/memsys"
	"splash2/internal/runner"
)

// Engine executes the characterization experiments through the parallel
// scheduler in internal/runner. Every experiment is a job keyed by its
// content (program, options, machine configuration, experiment kind), so
// identical experiments run once per engine even when several figures
// need them, and an optional on-disk cache carries results across
// processes. A request runs as one job graph in which each program point
// — (app, procs, opts) — executes once: that execution feeds every
// memory configuration the request's sections ask of the point, and the
// recorder when a sweep needs the trace (exec.go). Table 1 and Figures
// 1–2 take its counters, Figures 4–6 and Table 3 its memory systems, and
// the Figure 3 and Figure 7–8 sweeps its trace. PRAM timing makes each
// experiment deterministic regardless of scheduling, so an Engine at any
// parallelism produces results deep-equal to a single-worker engine's.
type Engine struct {
	r         *runner.Runner
	ctx       context.Context
	cancel    context.CancelFunc // releases the engine deadline (root only)
	journal   *runner.Journal    // durable run journal (root only)
	keepGoing bool
	spillDir  string // non-empty: record jobs spill v2 traces here
	fault     *fault.Injector

	// Request scope (nil on a root engine): Scoped views share r — and
	// with it the worker pool, memo and cache — but carry their own
	// context, failure policy, progress sink and failure log, which is
	// how splashd isolates concurrent requests on one engine.
	onProgress runner.ProgressFunc
	scope      *requestScope
}

// requestScope collects the graphs created by one Scoped engine so its
// Failures() sees only that request's losses.
type requestScope struct {
	mu     sync.Mutex
	graphs []*runner.Graph
}

func (s *requestScope) add(g *runner.Graph) {
	s.mu.Lock()
	s.graphs = append(s.graphs, g)
	s.mu.Unlock()
}

func (s *requestScope) failures() []*runner.JobError {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []*runner.JobError
	for _, g := range s.graphs {
		out = append(out, g.Failures()...)
	}
	return out
}

// ScopeOptions configures a request-scoped view of a shared engine.
type ScopeOptions struct {
	// Context cancels the scope's graphs; nil inherits the parent's.
	Context context.Context
	// KeepGoing sets the scope's failure policy (per request, independent
	// of the engine's and of other scopes').
	KeepGoing bool
	// OnProgress receives this scope's job-completion events only; nil
	// disables. It must not block (see runner.ProgressFunc).
	OnProgress runner.ProgressFunc
}

// Scoped returns a request-scoped view of the engine: same runner (one
// worker pool, one memo, one cache — results computed by any scope warm
// every other), but its own context, failure policy, progress sink and
// failure log. Failed jobs are never memoized or cached, so one scope's
// failures cannot poison another's results.
func (e *Engine) Scoped(o ScopeOptions) *Engine {
	ctx := o.Context
	if ctx == nil {
		ctx = e.ctx
	}
	return &Engine{
		r:          e.r,
		ctx:        ctx,
		keepGoing:  o.KeepGoing,
		spillDir:   e.spillDir,
		fault:      e.fault,
		onProgress: o.OnProgress,
		scope:      &requestScope{},
	}
}

// newGraph starts a graph configured for this engine's scope. Every
// request's batch creates its graph through it.
func (e *Engine) newGraph() *runner.Graph {
	g := e.r.NewGraph()
	if e.scope != nil {
		g.SetKeepGoing(e.keepGoing)
		if e.onProgress != nil {
			g.OnProgress(e.onProgress)
		}
		e.scope.add(g)
	}
	return g
}

// EngineOptions configures an Engine.
type EngineOptions struct {
	// Workers is the experiment-level parallelism; ≤ 0 selects
	// runtime.GOMAXPROCS(0).
	Workers int
	// CacheDir roots the on-disk result cache; empty disables it.
	CacheDir string
	// Progress receives live job-completion lines; nil disables them.
	Progress io.Writer
	// Context cancels in-flight experiment graphs; nil means Background.
	Context context.Context

	// KeepGoing runs every graph to completion past failed experiments:
	// sections render FAILED(...) placeholders for lost rows and the
	// failures accumulate for the end-of-run manifest (Failures).
	KeepGoing bool
	// Timeout bounds each experiment attempt; 0 disables.
	Timeout time.Duration
	// Retries grants extra attempts to transiently failing experiments.
	Retries int
	// RetryBackoff is the first-retry delay (doubling per retry);
	// ≤ 0 selects the scheduler default.
	RetryBackoff time.Duration
	// Fault is the deterministic fault injector threaded through job
	// execution and cache I/O; nil disables injection.
	Fault *fault.Injector

	// SpillTraces makes record jobs write each recording's v2 bytes to
	// an on-disk container and replay it from the file, instead of
	// holding the bytes in memory while the recording is memoized.
	// Spilled traces are content-addressed under CacheDir/traces (a
	// temporary directory when the cache is off) and reused across
	// processes after an integrity check.
	SpillTraces bool

	// LeaseTTL configures cross-process work leases on the cache (on by
	// default whenever CacheDir is set): 0 selects the default TTL,
	// negative disables leases. Leases coalesce expensive jobs across
	// processes sharing one cache directory; a crashed holder's lease
	// expires after the TTL and is taken over, never deadlocked on.
	LeaseTTL time.Duration
	// NoJournal disables the durable run journal. With a cache directory
	// set, each engine run otherwise appends its job lifecycle to
	// CacheDir/journal/<runID>.jsonl — the crash-forensics record that
	// `characterize -resume` reads back.
	NoJournal bool
	// Deadline bounds the whole engine run: jobs past it are cancelled
	// promptly (distinct from Timeout, which bounds one attempt).
	// 0 disables.
	Deadline time.Duration
}

// NewEngine creates an engine. It fails only when the cache or journal
// directory cannot be opened. Callers owning the engine's lifecycle
// should Close it when done so the run journal records a clean end.
func NewEngine(o EngineOptions) (*Engine, error) {
	var cache *runner.Cache
	var journal *runner.Journal
	if o.CacheDir != "" {
		c, err := runner.OpenCache(o.CacheDir)
		if err != nil {
			return nil, err
		}
		cache = c
		cache.SetFault(o.Fault)
		if o.LeaseTTL >= 0 {
			cache.EnableLeases(o.LeaseTTL)
		}
		if !o.NoJournal {
			j, err := runner.OpenJournal(runner.JournalDir(o.CacheDir))
			if err != nil {
				return nil, err
			}
			j.SetFault(o.Fault)
			journal = j
		}
	}
	ctx := o.Context
	if ctx == nil {
		ctx = context.Background()
	}
	var cancel context.CancelFunc
	if o.Deadline > 0 {
		ctx, cancel = context.WithTimeout(ctx, o.Deadline)
	}
	var spillDir string
	if o.SpillTraces {
		spillDir = filepath.Join(os.TempDir(), "splash2-spill")
		if o.CacheDir != "" {
			spillDir = filepath.Join(o.CacheDir, "traces")
		}
		if err := os.MkdirAll(spillDir, 0o777); err != nil {
			if cancel != nil {
				cancel()
			}
			return nil, fmt.Errorf("core: opening trace spill directory: %w", err)
		}
		sweepSpillOrphans(spillDir, spillOrphanAge)
	}
	return &Engine{
		spillDir: spillDir,
		fault:    o.Fault,
		journal:  journal,
		cancel:   cancel,
		r: runner.New(runner.Options{
			Workers:      o.Workers,
			Cache:        cache,
			Progress:     o.Progress,
			KeepGoing:    o.KeepGoing,
			Timeout:      o.Timeout,
			Retries:      o.Retries,
			RetryBackoff: o.RetryBackoff,
			Fault:        o.Fault,
			Journal:      journal,
		}),
		ctx:       ctx,
		keepGoing: o.KeepGoing,
	}, nil
}

// Close ends the engine run cleanly: the run journal gets its run.end
// event (a journal without one is, by definition, a crashed run) and the
// engine deadline's resources are released. Safe on a Scoped view and
// safe to call more than once; experiments already in flight are not
// interrupted by Close itself.
func (e *Engine) Close() error {
	var err error
	if e.journal != nil {
		err = e.journal.Close(e.r.Counts())
		e.journal = nil
	}
	if e.cancel != nil {
		e.cancel()
	}
	return err
}

// Journal returns the engine's durable run journal, or nil when
// journaling is disabled (no cache directory, NoJournal, or a Scoped
// view — scopes share the root engine's journal through the runner).
func (e *Engine) Journal() *runner.Journal { return e.journal }

// Counts returns the engine's cumulative scheduling counters (jobs
// executed, cache hits, memo hits, retries, failures, skips).
func (e *Engine) Counts() runner.Counts { return e.r.Counts() }

// MemoStats reports the engine's long-lived state sizes (memo entries,
// failure-log length and overflow), for daemon memory monitoring.
func (e *Engine) MemoStats() runner.MemoStats { return e.r.MemoStats() }

// Failures returns every failed and skipped experiment recorded so far
// (keep-going mode); see NewFailureManifest for the manifest form. On a
// Scoped engine only this scope's failures are reported.
func (e *Engine) Failures() []*runner.JobError {
	if e.scope != nil {
		return e.scope.failures()
	}
	return e.r.Failures()
}

// DefaultCacheDir returns the default on-disk cache location
// (<user cache dir>/splash2).
func DefaultCacheDir() (string, error) { return runner.DefaultDir() }

// canonOpts normalizes option maps for hashing: empty and nil maps must
// produce the same key.
func canonOpts(m map[string]int) map[string]int {
	if len(m) == 0 {
		return nil
	}
	return m
}

// runIdent is the cache identity of a full-machine execution.
type runIdent struct {
	App      string         `json:"app"`
	Opts     map[string]int `json:"opts"`
	Mem      memsys.Config  `json:"mem"`
	MemModel int            `json:"memModel"`
}

// traceIdent is the cache identity of a recorded reference trace (and of
// every replay derived from it).
type traceIdent struct {
	App   string         `json:"app"`
	Procs int            `json:"procs"`
	Opts  map[string]int `json:"opts"`
}

// recordOut bundles what a record job produces: the recording — its v2
// bytes in memory, or in a spilled container on disk — plus the
// recording run's counters.
type recordOut struct {
	Trace *memsys.Trace
	Stats mach.Stats
}

// recordStatsJob schedules extraction of the recording run's counters
// (kind "recordstats"). Unlike the trace itself these are small and
// disk-cacheable, so a fully-cached line-size sweep never re-records.
func recordStatsJob(g *runner.Graph, rec runner.Job[recordOut], id traceIdent) runner.Job[mach.Stats] {
	return runner.Submit(g, runner.Spec{
		Label: fmt.Sprintf("recordstats %s p=%d", id.App, id.Procs),
		Key:   runner.KeyOf("recordstats", id),
		Deps:  []runner.Handle{rec},
	}, func(ctx context.Context) (mach.Stats, error) {
		out, err := rec.Result()
		return out.Stats, err
	})
}
