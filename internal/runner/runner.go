// Package runner is the parallel experiment scheduler behind the
// characterization engine. The paper's methodology (§5) is an
// embarrassingly parallel grid of independent experiments — programs ×
// processor counts × cache sizes × associativities × line sizes — and
// every experiment is deterministic under PRAM timing, so scheduling
// order cannot change results. The runner exploits both properties:
//
//   - a job model with explicit dependencies, so one lazy program
//     execution feeds every experiment that needs it — counters, several
//     memory systems, the trace a Figure-3 sweep replays — instead of one
//     re-execution each; an edge may be added after submission
//     (Graph.Depend) for a dependency known only once the graph is built;
//   - a worker pool (default runtime.GOMAXPROCS) with context
//     cancellation, fail-fast error propagation, and live progress
//     reporting; a job runs once, since a deterministic experiment that
//     failed would fail the same way on every retry;
//   - a content-addressed result store: an in-memory memo deduplicates
//     identical experiments within a run (Table 1 and Figure 2 submit the
//     same jobs; Table 3 reuses Figure 4's points), and an optional
//     on-disk cache (Cache) makes re-running a characterization after
//     changing one flag compute only the delta.
package runner

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"splash2/internal/fault"
	"splash2/internal/memsys"
)

// Options configures a Runner.
type Options struct {
	// Workers is the number of jobs executed concurrently; ≤ 0 selects
	// runtime.GOMAXPROCS(0).
	Workers int
	// Cache is the on-disk result store; nil disables it.
	Cache *Cache
	// Progress receives one line per executed job plus a per-graph
	// summary, the text form of the progress events; nil disables it.
	// Per-graph sinks are added with Graph.OnProgress (splashd streams
	// one request's events without seeing its neighbours').
	Progress io.Writer

	// Timeout bounds each job's run; 0 disables. A timed-out job fails
	// with ErrTimeout at once, so a wedged job cannot hang its graph's
	// Wait; its body keeps its worker slot until it returns, so abandoned
	// bodies cannot oversubscribe the pool either.
	Timeout time.Duration
	// Fault is the deterministic fault injector threaded through job
	// execution and cache I/O; nil disables injection.
	Fault *fault.Injector
	// Journal is the durable run journal receiving job lifecycle events;
	// nil disables journaling.
	Journal *Journal
}

// Counts reports what a Runner has done so far.
type Counts struct {
	// Submitted counts jobs submitted across all graphs, after key
	// deduplication.
	Submitted int64
	// Executed counts jobs whose function actually ran.
	Executed int64
	// CacheHits counts jobs served from the on-disk cache.
	CacheHits int64
	// MemoHits counts jobs served from the in-memory memo.
	MemoHits int64
	// Failed counts jobs that failed (panics and timeouts included).
	Failed int64
	// Skipped counts jobs never run because a dependency failed.
	Skipped int64
	// TimedOut counts jobs abandoned at the job timeout.
	TimedOut int64
	// LeaseAcquired counts jobs executed under a held cross-process
	// lease (leases enabled, this process won the key).
	LeaseAcquired int64
	// LeaseShared counts leased jobs served from a stored entry instead
	// of running: the winner's, when this process lost the lease race,
	// or one found on winning it (its previous holder's, or a recording
	// its execution handed over with Store).
	LeaseShared int64
}

// Runner schedules experiment graphs. It may run many graphs
// sequentially or concurrently; completed results are memoized across
// graphs, so a trace recorded for Figure 3 is reused by the Figure 7–8
// sweep, and a long-running Runner (splashd) keeps every completed
// experiment warm for later requests.
//
// A Runner is safe for concurrent use: many goroutines may build and
// Wait on independent graphs at once. All graphs share one worker pool
// (the Workers semaphore), one memo, one cache and one set of counters;
// memoized result values are shared by reference across graphs and must
// be treated as immutable by every consumer. A key has one value: the
// first one memoized, which a concurrent graph that executed the same
// key adopts in place of its own (memoPut).
type Runner struct {
	opts Options
	// fns are the progress sinks every graph starts with: the Progress
	// lines, when set.
	fns []ProgressFunc
	// sem is the worker pool shared by every graph: concurrent graphs
	// multiplex the same Workers slots instead of multiplying them, so a
	// daemon running many requests at once cannot oversubscribe the host.
	// A slot is held until the job's body returns, even when the job was
	// abandoned at its timeout or by cancellation. Jobs acquire a slot
	// only when their dependencies are complete, so the shared semaphore
	// cannot deadlock a dependency chain.
	sem chan struct{}

	memoMu sync.Mutex
	memo   map[Key]any

	fileMu  sync.Mutex
	files   []*os.File // the open file entries memoized values read (files.go)
	private string     // an uncached runner's file-entry directory
	closed  bool

	submitted, executed, cacheHits, memoHits atomic.Int64
	failed, skipped, timedOut                atomic.Int64
	leaseAcquired, leaseShared               atomic.Int64
}

// New creates a Runner.
func New(opts Options) *Runner {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	r := &Runner{
		opts: opts,
		sem:  make(chan struct{}, opts.Workers),
		memo: map[Key]any{},
	}
	if opts.Progress != nil {
		r.fns = append(r.fns, textProgress(opts.Progress, opts.Workers))
	}
	return r
}

// Workers returns the configured parallelism.
func (r *Runner) Workers() int { return r.opts.Workers }

// Counts returns cumulative scheduling counters.
func (r *Runner) Counts() Counts {
	return Counts{
		Submitted: r.submitted.Load(),
		Executed:  r.executed.Load(),
		CacheHits: r.cacheHits.Load(),
		MemoHits:  r.memoHits.Load(),
		Failed:    r.failed.Load(),
		Skipped:   r.skipped.Load(),
		TimedOut:  r.timedOut.Load(),

		LeaseAcquired: r.leaseAcquired.Load(),
		LeaseShared:   r.leaseShared.Load(),
	}
}

// MemoEntries reports how many results the Runner holds memoized in
// memory, for a daemon's metrics endpoint.
func (r *Runner) MemoEntries() int {
	r.memoMu.Lock()
	defer r.memoMu.Unlock()
	return len(r.memo)
}

func (r *Runner) memoGet(k Key) (any, bool) {
	r.memoMu.Lock()
	defer r.memoMu.Unlock()
	v, ok := r.memo[k]
	return v, ok
}

// memoPut memoizes v under k and returns the value the memo holds for
// k from now on: v, unless another graph memoized k first — two
// concurrent graphs can both execute a key neither found in the memo —
// in which case v is dropped and the earlier value returned. Every job
// completes with what memoPut returns, so each key has one value for the
// life of the Runner: a graph that computed it cold and every later
// graph served from the memo see the same thing.
func (r *Runner) memoPut(k Key, v any) any {
	r.memoMu.Lock()
	defer r.memoMu.Unlock()
	if old, ok := r.memo[k]; ok {
		return old
	}
	r.memo[k] = v
	return v
}

// job is the untyped scheduling unit.
type job struct {
	label string
	key   Key
	lazy  bool
	deps  []*job
	run   func(ctx context.Context) (any, error)
	codec *valueCodec // the result type's stored form
	file  bool        // stored as a file entry instead (files.go)

	done   chan struct{} // closed on completion
	result any
	err    error

	visited bool          // resolve-phase mark
	body    chan struct{} // closed when the body returns; nil until it starts
}

func (j *job) complete(v any, err error) {
	j.result, j.err = v, err
	close(j.done)
}

func (j *job) isDone() bool {
	select {
	case <-j.done:
		return true
	default:
		return false
	}
}

// Handle is the untyped view of a submitted job, used to declare
// dependencies.
type Handle interface{ raw() *job }

// Job is a typed handle on a submitted job.
type Job[T any] struct{ j *job }

func (h Job[T]) raw() *job { return h.j }

// Result returns the job's value after its graph completed. Calling it
// on an incomplete job (before Wait, or after a failed Wait) returns an
// error rather than blocking.
func (h Job[T]) Result() (T, error) {
	var zero T
	if h.j == nil {
		return zero, fmt.Errorf("runner: nil job")
	}
	if !h.j.isDone() {
		return zero, fmt.Errorf("runner: job %q has not completed", h.j.label)
	}
	if h.j.err != nil {
		return zero, h.j.err
	}
	v, ok := h.j.result.(T)
	if !ok {
		return zero, fmt.Errorf("runner: job %q holds %T, want %T", h.j.label, h.j.result, zero)
	}
	return v, nil
}

// Done reports whether the job has completed — at submission already
// when its result was memoized by an earlier graph.
func (h Job[T]) Done() bool { return h.j != nil && h.j.isDone() }

// Spec describes a job being submitted.
type Spec struct {
	// Label identifies the job in progress output and errors.
	Label string
	// Key is the job's content address; the zero Key disables caching,
	// memoization and deduplication for this job.
	Key Key
	// Lazy jobs run only when a needed job depends on them — e.g. a trace
	// `record` job that is skipped entirely when every dependent `replay`
	// is served from the cache.
	Lazy bool
	// Deps must complete before this job runs. They must belong to the
	// same graph or already be complete.
	Deps []Handle
}

// Graph is one batch of jobs executed by a single Wait call. Concurrent
// graphs on one Runner execute independently — sharing the worker pool,
// memo and cache, but with per-graph failure policy, failure log and
// progress sinks — which is how splashd isolates requests on a shared
// engine.
type Graph struct {
	r  *Runner
	mu sync.Mutex

	jobs      []*job
	byKey     map[Key]*job
	waited    bool
	err       error
	keepGoing bool
	fns       []ProgressFunc

	failMu   sync.Mutex
	failures []*JobError
}

// NewGraph starts an empty, fail-fast job graph with the Runner's
// progress sinks.
func (r *Runner) NewGraph() *Graph {
	return &Graph{r: r, byKey: map[Key]*job{}, fns: slices.Clone(r.fns)}
}

// SetKeepGoing sets this graph's failure policy. A keep-going graph runs
// to completion past failed jobs instead of failing fast: dependents of a
// failure are skipped (completing with a Skipped JobError), every failure
// is recorded for Failures, and Wait returns nil unless the context was
// cancelled; callers then inspect per-job errors and degrade their
// output. The Runner's other graphs keep their own policies. Must be
// called before Wait.
func (g *Graph) SetKeepGoing(keep bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.waited {
		panic("runner: SetKeepGoing after Wait")
	}
	g.keepGoing = keep
}

// OnProgress adds a progress sink observing only this graph's events
// (see ProgressFunc for the delivery contract). Must be called before
// Wait.
func (g *Graph) OnProgress(fn ProgressFunc) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.waited {
		panic("runner: OnProgress after Wait")
	}
	if fn != nil {
		g.fns = append(g.fns, fn)
	}
}

// Failures returns the failed and skipped jobs of this graph, in
// completion order — the raw material of a request's failure manifest.
func (g *Graph) Failures() []*JobError {
	g.failMu.Lock()
	defer g.failMu.Unlock()
	return append([]*JobError(nil), g.failures...)
}

func (g *Graph) recordFailure(je *JobError) {
	g.failMu.Lock()
	g.failures = append(g.failures, je)
	g.failMu.Unlock()
}

// Submit adds a job to the graph and returns its handle. Submitting a
// key already present in the graph returns the existing job; a key whose
// result is memoized from an earlier graph completes immediately.
func Submit[T any](g *Graph, spec Spec, run func(ctx context.Context) (T, error)) Job[T] {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.waited {
		panic("runner: Submit after Wait")
	}
	if !spec.Key.IsZero() {
		if j, ok := g.byKey[spec.Key]; ok {
			return Job[T]{j}
		}
	}
	if spec.Label == "" && !spec.Key.IsZero() {
		spec.Label = spec.Key.String()[:12]
	}
	j := &job{
		label: spec.Label,
		key:   spec.Key,
		lazy:  spec.Lazy,
		done:  make(chan struct{}),
		run: func(ctx context.Context) (any, error) {
			return run(ctx)
		},
		codec: codecFor(reflect.TypeFor[T]()),
		file:  reflect.TypeFor[T]() == fileType,
	}
	for _, d := range spec.Deps {
		j.deps = append(j.deps, d.raw())
	}
	g.r.submitted.Add(1)
	if !spec.Key.IsZero() {
		g.byKey[spec.Key] = j
		if v, ok := g.r.memoGet(spec.Key); ok {
			g.r.memoHits.Add(1)
			j.complete(v, nil)
		}
	}
	g.jobs = append(g.jobs, j)
	return Job[T]{j}
}

// Depend makes j wait for dep as well: an edge added after j was
// submitted, for a dependency whose identity is only known once the rest
// of the graph is built (core's one execution per program point, whose
// key names every configuration the graph's jobs ask of it). dep must
// belong to the graph or be complete; a complete j, or an edge already
// present, is left alone. Must be called before Wait.
func (g *Graph) Depend(j, dep Handle) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.waited {
		panic("runner: Depend after Wait")
	}
	jj, dj := j.raw(), dep.raw()
	if jj.isDone() || slices.Contains(jj.deps, dj) {
		return
	}
	jj.deps = append(jj.deps, dj)
}

// Needs reports whether j is going to run in g: demanded, served from
// neither memo nor cache, not complete. A running job asks it of a
// dependent, to make a by-product only for one that will use it (Store).
func (g *Graph) Needs(h Handle) bool {
	j := h.raw()
	if j == nil || !j.visited || j.isDone() {
		return false
	}
	_, memo := g.r.memoGet(j.key)
	return !memo
}

// Wait resolves the graph (probing the cache for every demanded job,
// skipping lazy jobs nobody needs) and executes the remainder on the
// worker pool. The first job error cancels everything in flight and is
// returned; ctx cancellation behaves the same way. Wait is idempotent:
// repeated calls return the first outcome.
func (g *Graph) Wait(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	g.mu.Lock()
	if g.waited {
		defer g.mu.Unlock()
		return g.err
	}
	g.waited = true
	need := g.resolve(ctx)
	g.mu.Unlock()

	g.err = g.execute(ctx, need)
	return g.err
}

// resolve walks level by level from the demanded (non-lazy, incomplete)
// jobs, probing each level's cache entries in parallel, and returns the
// jobs that must execute: a miss demands its dependencies in the next
// level, a hit stops the walk, so the dependencies of fully-cached sweeps
// are never probed. No job is probed twice; only resolve marks visited.
func (g *Graph) resolve(ctx context.Context) []*job {
	var need, level []*job
	for _, j := range g.jobs {
		if !j.lazy {
			level = append(level, j)
		}
	}
	for len(level) > 0 {
		var probe []*job
		for _, j := range level {
			if !j.visited && !j.isDone() {
				probe = append(probe, j)
			}
			j.visited = true
		}
		g.probe(ctx, probe)
		level = level[:0]
		for _, j := range probe {
			if !j.isDone() { // a hit completed it
				need = append(need, j)
				level = append(level, j.deps...)
			}
		}
	}
	return need
}

// probe serves what it can of jobs from the on-disk cache — cache
// entries and file entries alike — completing each hit with the value
// the memo holds for its key. The probes run on min(Workers, len(jobs))
// goroutines; one worker probes inline.
func (g *Graph) probe(ctx context.Context, jobs []*job) {
	c := g.r.opts.Cache
	if c == nil || len(jobs) == 0 {
		return
	}
	var next atomic.Int64
	work := func() {
		for i := next.Add(1) - 1; i < int64(len(jobs)); i = next.Add(1) - 1 {
			j := jobs[i]
			if v, ok := g.r.load(ctx, j); ok {
				g.r.cacheHits.Add(1)
				j.complete(g.r.memoPut(j.key, v), nil)
			}
		}
	}
	var wg sync.WaitGroup
	for range min(g.r.opts.Workers, len(jobs)) - 1 {
		wg.Add(1)
		go func() { defer wg.Done(); work() }()
	}
	work()
	wg.Wait()
}

// execute runs the needed jobs: one goroutine per job waiting on its
// dependencies, gated by the Runner-wide semaphore of Workers slots
// (shared with every other graph in flight). Each job runs once through
// runOnce (panic recovery, timeout); under the graph's keep-going policy
// a failure is recorded and its dependents are skipped instead of
// cancelling the graph.
func (g *Graph) execute(parent context.Context, need []*job) error {
	if len(need) == 0 {
		newProgress(g.fns, 0).summary(len(g.jobs), len(g.jobs), 0, 0, 0)
		return parent.Err()
	}
	ctx, cancel := context.WithCancel(parent)
	defer cancel()

	var (
		errOnce  sync.Once
		firstErr error
		fail     = func(err error) {
			errOnce.Do(func() {
				firstErr = err
				cancel()
			})
		}
		sem                               = g.r.sem
		wg                                sync.WaitGroup
		executed, served, failed, skipped atomic.Int64
	)
	keep := g.keepGoing
	prog := newProgress(g.fns, len(need))
	for _, j := range need {
		wg.Add(1)
		go func(j *job) {
			defer wg.Done()
			for _, d := range j.deps {
				select {
				case <-d.done:
					if d.err != nil {
						if !keep {
							j.complete(nil, fmt.Errorf("dependency %s: %w", d.label, d.err))
							return
						}
						if ctx.Err() != nil {
							// The graph is being cancelled; a dependency
							// completing with the cancellation error is not
							// a failure to record.
							j.complete(nil, ctx.Err())
							return
						}
						je := &JobError{
							Label:   j.label,
							Key:     keyStr(j.key),
							Skipped: true,
							Err:     fmt.Errorf("dependency %s: %w", d.label, d.err),
						}
						g.r.skipped.Add(1)
						skipped.Add(1)
						g.recordFailure(je)
						g.r.opts.Journal.JobFail(ctx, je)
						prog.job("skipped", j.label, d.label)
						j.complete(nil, je)
						return
					}
				case <-ctx.Done():
					j.complete(nil, ctx.Err())
					return
				}
			}
			select {
			case sem <- struct{}{}:
			case <-ctx.Done():
				j.complete(nil, ctx.Err())
				return
			}
			defer g.r.releaseSlot(j)
			if ctx.Err() != nil {
				j.complete(nil, ctx.Err())
				return
			}
			g.r.opts.Journal.JobStart(ctx, j.label, keyStr(j.key))
			v, shared, err := g.runLeased(ctx, j)
			if err != nil {
				if ctx.Err() != nil && errors.Is(err, ctx.Err()) {
					// Cancellation, not a job fault: complete without
					// recording a failure.
					j.complete(nil, err)
					return
				}
				je := asJobError(j, err)
				g.r.failed.Add(1)
				failed.Add(1)
				g.recordFailure(je)
				g.r.opts.Journal.JobFail(ctx, je)
				prog.job("failed", j.label, je.Cause())
				j.complete(nil, je)
				if !keep {
					fail(je)
				}
				return
			}
			if !j.key.IsZero() {
				v = g.r.memoPut(j.key, v)
			}
			j.complete(v, nil)
			if shared {
				served.Add(1)
				g.r.opts.Journal.JobShared(ctx, j.label, keyStr(j.key))
			} else {
				executed.Add(1)
				g.r.opts.Journal.JobDone(ctx, j.label, keyStr(j.key))
			}
			prog.job("done", j.label, "")
		}(j)
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	if err := parent.Err(); err != nil {
		return err
	}
	prog.summary(len(g.jobs), len(g.jobs)-len(need)+int(served.Load()),
		int(executed.Load()), int(failed.Load()), int(skipped.Load()))
	return nil
}

// runLeased executes a job, coalescing with other processes when
// cross-process leases are enabled on the cache. The winner of a key's
// lease runs the job and stores the result durably *before* releasing
// the lease, so a loser that finds the lease free again finds the entry
// too. A loser waits waitInterval, serves the winner's entry once it is
// stored (shared=true), and otherwise contends again: a winner that
// died or failed without storing leaves its key to the next contender,
// so the loop ends in a local execution, a shared result or ctx's
// error. Jobs without a key — and any lease-layer error — fall back to
// plain local execution: leases are an optimisation, never a gate.
func (g *Graph) runLeased(ctx context.Context, j *job) (v any, shared bool, err error) {
	ls := g.r.opts.Cache.leaseManager()
	for ls != nil && !j.key.IsZero() {
		state, release := ls.tryAcquire(ctx, j.key)
		if state == leaseErr {
			break
		}
		if state == leaseWon {
			// The key's previous holder may have stored and released
			// after this graph's resolve missed: its entry is the result.
			v, shared, err = g.runStored(ctx, j, true)
			release()
			if shared {
				g.r.leaseShared.Add(1)
			} else {
				g.r.leaseAcquired.Add(1)
			}
			return v, shared, err
		}
		// leaseLost: another process is computing this key.
		select {
		case <-ctx.Done():
			return nil, false, ctx.Err()
		case <-time.After(waitInterval):
		}
		if v, ok := g.r.load(ctx, j); ok {
			g.r.leaseShared.Add(1)
			return v, true, nil
		}
	}
	return g.runStored(ctx, j, false)
}

// runStored runs a job and stores its result, best-effort (a trace as a
// file entry). On a won lease (recheck), and for a trace a dependency
// may Store, it serves the job from an entry stored since the graph
// resolved instead (served=true). Storing inside the lease window is
// what makes hand-off race-free.
func (g *Graph) runStored(ctx context.Context, j *job, recheck bool) (v any, served bool, err error) {
	if recheck || j.file {
		if v, ok := g.r.load(ctx, j); ok {
			return v, true, nil
		}
	}
	if v, err = g.runOnce(ctx, j); err != nil || j.key.IsZero() {
		return v, false, err
	}
	if j.file {
		return g.r.storeFile(ctx, j.key, v.(*memsys.Trace)), false, nil
	}
	if c := g.r.opts.Cache; c != nil {
		if data, merr := j.codec.encode(v); merr == nil {
			c.Put(ctx, j.key, data) //splash:allow durability best-effort store; waiters re-contend on a missing cache entry, so a lost Put costs a re-run, not correctness
		}
	}
	return v, false, nil
}

// Lookup serves a whole graph's outcome from one value that Keep stored
// under k, before any job of g is submitted: a verified Cache.Get (the
// "cache.get:<key>" fault point, the checksum, the type's fingerprint; a
// damaged entry is removed and missed), counted as a cache hit and
// reported to g's sinks as a summary of one job served. On a miss g is
// untouched and runs as usual.
func Lookup[T any](ctx context.Context, g *Graph, k Key) (T, bool) {
	v, ok := g.r.opts.Cache.Get(ctx, k, codecFor(reflect.TypeFor[T]()).decode)
	if !ok {
		var zero T
		return zero, false
	}
	g.r.cacheHits.Add(1)
	newProgress(g.fns, 0).summary(1, 1, 0, 0, 0)
	return v.(T), true
}

// Keep stores v under k for Lookup, through the "cache.put:<key>" fault
// point; a no-op without a cache.
func Keep[T any](ctx context.Context, g *Graph, k Key, v T) {
	if c := g.r.opts.Cache; c != nil {
		if data, err := codecFor(reflect.TypeFor[T]()).encode(v); err == nil {
			c.Put(ctx, k, data) //splash:allow durability best-effort store; a lost Put costs the next run a recompute, not correctness
		}
	}
}

// runOnce executes the job's body on its own goroutine so that a panic
// (the job's own, or an injected one) is recovered into a JobError and a
// timeout or cancellation can abandon the body without stalling the
// graph. The outcome channel is buffered: an abandoned body delivers its
// result and exits when it returns, and only then frees its worker slot
// (releaseSlot).
func (g *Graph) runOnce(ctx context.Context, j *job) (any, error) {
	g.r.executed.Add(1)
	rctx, rcancel := ctx, context.CancelFunc(func() {})
	if g.r.opts.Timeout > 0 {
		rctx, rcancel = context.WithTimeout(ctx, g.r.opts.Timeout)
	}
	defer rcancel()

	type outcome struct {
		v   any
		err error
	}
	ch := make(chan outcome, 1)
	j.body = make(chan struct{})
	go func() {
		var o outcome
		defer func() {
			if p := recover(); p != nil {
				o = outcome{err: &JobError{
					Panicked: true,
					Stack:    string(debug.Stack()),
					Err:      fmt.Errorf("panic: %v", p),
				}}
			}
			// Closed before delivery, so a job that is not abandoned
			// finds its body done when it frees the slot.
			close(j.body)
			ch <- o
		}()
		if o.err = g.r.opts.Fault.Do(rctx, "job:"+j.label); o.err == nil {
			o.v, o.err = j.run(rctx)
		}
	}()
	select {
	case o := <-ch:
		return o.v, g.normalizeTimeout(ctx, rctx, o.err)
	case <-rctx.Done():
		// Prefer a result that raced the deadline.
		select {
		case o := <-ch:
			return o.v, g.normalizeTimeout(ctx, rctx, o.err)
		default:
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		g.r.timedOut.Add(1)
		return nil, fmt.Errorf("%w after %v", ErrTimeout, g.r.opts.Timeout)
	}
}

// normalizeTimeout classifies a job error caused by the job's own
// deadline as ErrTimeout. A job that observes its context and
// returns the deadline error races the scheduler's timeout branch; both
// paths must classify the failure identically.
func (g *Graph) normalizeTimeout(ctx, rctx context.Context, err error) error {
	if err == nil || ctx.Err() != nil || rctx.Err() == nil || !errors.Is(err, rctx.Err()) {
		return err
	}
	g.r.timedOut.Add(1)
	return fmt.Errorf("%w after %v", ErrTimeout, g.r.opts.Timeout)
}

// releaseSlot frees j's worker slot: at once, or, when j's body was
// abandoned at its timeout or by cancellation and is still running, as
// soon as the body returns. Abandoned bodies (no mach execution or memsys
// pass reads its context) therefore count against Workers until they
// really stop.
func (r *Runner) releaseSlot(j *job) {
	if j.body != nil {
		select {
		case <-j.body:
		default:
			go func() {
				<-j.body
				<-r.sem
			}()
			return
		}
	}
	<-r.sem
}

// asJobError converts a job's error into its structured failure record. Panic JobErrors built inside runOnce are adopted;
// everything else is wrapped.
func asJobError(j *job, err error) *JobError {
	var je *JobError
	if errors.As(err, &je) && je.Panicked && je.Label == "" {
		je.Label = j.label
		je.Key = keyStr(j.key)
		return je
	}
	return &JobError{
		Label:    j.label,
		Key:      keyStr(j.key),
		TimedOut: errors.Is(err, ErrTimeout),
		Err:      err,
	}
}
