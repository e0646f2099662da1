package core

import (
	"context"
	"errors"
	"io"
	"time"

	"splash2/internal/fault"
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
//
// Concurrent requests (Do) share the engine's worker pool, memo and
// cache; each runs as its own graph with its own context, failure policy,
// progress sink and failure manifest.
type Engine struct {
	r       *runner.Runner
	journal *runner.Journal // durable run journal
	// ctx and keepGoing are the context and failure policy of Report and
	// CollectResults; Do takes both from its call.
	ctx       context.Context
	keepGoing bool
	fault     *fault.Injector
}

// EngineOptions configures an Engine.
type EngineOptions struct {
	// Workers is the experiment-level parallelism; ≤ 0 selects
	// runtime.GOMAXPROCS(0).
	Workers int
	// CacheDir roots the on-disk result cache, the durable run journal
	// and the recordings: each engine run appends its job lifecycle to
	// CacheDir/journal/<runID>.jsonl, made at its first job event and
	// removed by Close, so only a run that died leaves the
	// crash-forensics record that `characterize -resume` reports; a
	// request's clean results are stored whole, one entry a repeat of
	// the request reads in place of its graph; and a recording is a stored
	// result the runner probes, leases and closes, a verified v2
	// container under CacheDir/traces. Engines sharing a CacheDir, in one
	// process or many, coalesce a cold job through its work lease, a
	// lock the kernel drops when its holder dies. Empty disables the
	// cache, the leases and the journal; recordings then go to a private
	// directory Close removes.
	CacheDir string
	// Progress receives live job-completion lines; nil disables them.
	Progress io.Writer
	// Context cancels in-flight experiment graphs; nil means Background.
	// A whole-run deadline is a Context with a deadline.
	Context context.Context

	// KeepGoing runs Report and CollectResults to completion past failed
	// experiments: sections render FAILED(...) placeholders for lost rows
	// and the run ends with its failure manifest. Do takes the policy
	// from Request.KeepGoing instead.
	KeepGoing bool
	// Timeout bounds each experiment; 0 disables.
	Timeout time.Duration
	// Fault is the deterministic fault injector threaded through job
	// execution and cache I/O; nil disables injection.
	Fault *fault.Injector
}

// NewEngine creates an engine. It fails only when the cache or journal
// directory cannot be opened. Callers owning the engine's lifecycle
// should Close it when done, so its run journal is removed rather than
// reported as a crashed run by the next resume.
func NewEngine(o EngineOptions) (*Engine, error) {
	var cache *runner.Cache
	var journal *runner.Journal
	if o.CacheDir != "" {
		var err error
		if cache, err = runner.OpenCache(o.CacheDir); err != nil {
			return nil, err
		}
		cache.SetFault(o.Fault)
		cache.EnableLeases(0)
		if journal, err = runner.OpenJournal(runner.JournalDir(o.CacheDir)); err != nil {
			return nil, err
		}
		journal.SetFault(o.Fault)
	}
	ctx := o.Context
	if ctx == nil {
		ctx = context.Background()
	}
	return &Engine{
		fault:   o.Fault,
		journal: journal,
		r: runner.New(runner.Options{
			Workers:  o.Workers,
			Cache:    cache,
			Progress: o.Progress,
			Timeout:  o.Timeout,
			Fault:    o.Fault,
			Journal:  journal,
		}),
		ctx:       ctx,
		keepGoing: o.KeepGoing,
	}, nil
}

// Close ends the engine run cleanly: the run journal removes its file
// (a journal left behind is, by definition, a crashed run's), and the
// runner closes its recordings (Runner.Close). Safe to call more than
// once; experiments in flight are not interrupted by Close itself.
func (e *Engine) Close() error {
	var err error
	if e.journal != nil {
		err = e.journal.Close(e.r.Counts())
		e.journal = nil
	}
	return errors.Join(err, e.r.Close())
}

// Journal returns the engine's durable run journal, or nil when
// journaling is disabled (no cache directory).
func (e *Engine) Journal() *runner.Journal { return e.journal }

// Counts returns the engine's cumulative scheduling counters (jobs
// executed, cache hits, memo hits, failures, skips).
func (e *Engine) Counts() runner.Counts { return e.r.Counts() }

// MemoEntries reports how many results the engine holds memoized in
// memory, for daemon memory monitoring.
func (e *Engine) MemoEntries() int { return e.r.MemoEntries() }

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
