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
//     reporting;
//   - a content-addressed result store: an in-memory memo deduplicates
//     identical experiments within a run (Table 1 and Figure 2 submit the
//     same jobs; Table 3 reuses Figure 4's points), and an optional
//     on-disk cache (Cache) makes re-running a characterization after
//     changing one flag compute only the delta.
package runner

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"splash2/internal/fault"
)

// Options configures a Runner.
type Options struct {
	// Workers is the number of jobs executed concurrently; ≤ 0 selects
	// runtime.GOMAXPROCS(0).
	Workers int
	// Cache is the on-disk result store; nil disables it.
	Cache *Cache
	// Progress receives one line per executed job plus a per-graph
	// summary; nil disables reporting.
	Progress io.Writer
	// OnProgress receives the structured form of the Progress lines for
	// every graph; nil disables it. Per-graph sinks are added with
	// Graph.OnProgress (splashd streams one request's events without
	// seeing its neighbours').
	OnProgress ProgressFunc

	// KeepGoing runs graphs to completion past failed jobs instead of
	// failing fast: dependents of a failure are skipped (completing with
	// a Skipped JobError), every failure is recorded for Failures(), and
	// Wait returns nil unless the context was cancelled. Callers then
	// inspect per-job errors and degrade their output.
	KeepGoing bool
	// Timeout bounds each job attempt; 0 disables. A timed-out attempt
	// is abandoned (its goroutine runs on until it observes its context)
	// and the job fails with ErrTimeout, so a wedged job cannot hang the
	// pool.
	Timeout time.Duration
	// Retries is the number of extra attempts granted to jobs that
	// report transient failures (see Transient); 0 disables retry.
	Retries int
	// RetryBackoff is the delay before the first retry, doubling per
	// subsequent retry; ≤ 0 selects 50ms.
	RetryBackoff time.Duration
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
	// Retried counts extra attempts after transient failures.
	Retried int64
	// Failed counts jobs that exhausted their attempts (panics and
	// timeouts included).
	Failed int64
	// Skipped counts jobs never run because a dependency failed.
	Skipped int64
	// TimedOut counts attempts abandoned at the job timeout.
	TimedOut int64
	// LeaseAcquired counts jobs executed under a held cross-process
	// lease (leases enabled, this process won the key).
	LeaseAcquired int64
	// LeaseShared counts jobs satisfied by another process's result:
	// this process lost the lease race and read the winner's cache
	// entry instead of recomputing.
	LeaseShared int64
	// LeaseTakeovers counts stale leases reclaimed from dead processes.
	LeaseTakeovers int64
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
// be treated as immutable by every consumer.
type Runner struct {
	opts Options
	// sem is the worker pool shared by every graph: concurrent graphs
	// multiplex the same Workers slots instead of multiplying them, so a
	// daemon running many requests at once cannot oversubscribe the host.
	// Jobs acquire a slot only when their dependencies are complete, so
	// the shared semaphore cannot deadlock a dependency chain.
	sem chan struct{}

	memoMu sync.Mutex
	memo   map[Key]any

	failMu       sync.Mutex
	failures     []*JobError
	failuresLost int64

	submitted, executed, cacheHits, memoHits   atomic.Int64
	retried, failed, skipped, timedOut         atomic.Int64
	leaseAcquired, leaseShared, leaseTakeovers atomic.Int64
}

// New creates a Runner.
func New(opts Options) *Runner {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.RetryBackoff <= 0 {
		opts.RetryBackoff = 50 * time.Millisecond
	}
	r := &Runner{
		opts: opts,
		sem:  make(chan struct{}, opts.Workers),
		memo: map[Key]any{},
	}
	if ls := opts.Cache.leaseManager(); ls != nil {
		ls.takeovers = func(ctx context.Context, key string) {
			r.leaseTakeovers.Add(1)
			r.opts.Journal.LeaseTakeover(ctx, key)
		}
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
		Retried:   r.retried.Load(),
		Failed:    r.failed.Load(),
		Skipped:   r.skipped.Load(),
		TimedOut:  r.timedOut.Load(),

		LeaseAcquired:  r.leaseAcquired.Load(),
		LeaseShared:    r.leaseShared.Load(),
		LeaseTakeovers: r.leaseTakeovers.Load(),
	}
}

// maxFailureLog bounds the runner-wide failure log: a long-running
// engine (splashd) serving failing requests for days must not grow it
// without bound. Per-graph logs (Graph.Failures) are bounded by graph
// size and are what request-scoped manifests read; overflow here loses
// only the global log's tail, counted by MemoStats.FailuresLost.
const maxFailureLog = 4096

// Failures returns every failed and skipped job recorded so far, in
// completion order — the raw material of the failure manifest. The log
// is capped at maxFailureLog entries; per-request manifests should use
// Graph.Failures, which has no cap.
func (r *Runner) Failures() []*JobError {
	r.failMu.Lock()
	defer r.failMu.Unlock()
	return append([]*JobError(nil), r.failures...)
}

func (r *Runner) recordFailure(g *Graph, je *JobError) {
	r.failMu.Lock()
	if len(r.failures) < maxFailureLog {
		r.failures = append(r.failures, je)
	} else {
		r.failuresLost++
	}
	r.failMu.Unlock()
	g.recordFailure(je)
}

// MemoStats reports the size of the Runner's long-lived state, for a
// daemon's metrics endpoint: memoized results held in memory, failure
// log length, and failures dropped past the log cap.
type MemoStats struct {
	MemoEntries  int   `json:"memoEntries"`
	FailureLog   int   `json:"failureLog"`
	FailuresLost int64 `json:"failuresLost"`
}

// MemoStats returns the current long-lived state sizes.
func (r *Runner) MemoStats() MemoStats {
	r.memoMu.Lock()
	entries := len(r.memo)
	r.memoMu.Unlock()
	r.failMu.Lock()
	defer r.failMu.Unlock()
	return MemoStats{MemoEntries: entries, FailureLog: len(r.failures), FailuresLost: r.failuresLost}
}

func (r *Runner) memoGet(k Key) (any, bool) {
	r.memoMu.Lock()
	defer r.memoMu.Unlock()
	v, ok := r.memo[k]
	return v, ok
}

func (r *Runner) memoPut(k Key, v any) {
	r.memoMu.Lock()
	r.memo[k] = v
	r.memoMu.Unlock()
}

// job is the untyped scheduling unit.
type job struct {
	label   string
	key     Key
	lazy    bool
	noStore bool
	deps    []*job
	run     func(ctx context.Context) (any, error)
	decode  func([]byte) (any, error)

	done   chan struct{} // closed on completion
	result any
	err    error

	visited  bool // resolve-phase mark
	attempts int  // attempts consumed (written by the scheduler only)
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
	// NoStore keeps the result out of the on-disk cache (it is still
	// memoized in memory and deduplicated). Used for traces, which are
	// too large to persist per configuration.
	NoStore bool
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

// NewGraph starts an empty job graph with the Runner's failure policy
// and progress sinks.
func (r *Runner) NewGraph() *Graph {
	g := &Graph{r: r, byKey: map[Key]*job{}, keepGoing: r.opts.KeepGoing}
	if r.opts.OnProgress != nil {
		g.fns = append(g.fns, r.opts.OnProgress)
	}
	return g
}

// SetKeepGoing overrides the Runner's KeepGoing policy for this graph:
// a request-scoped graph can run to completion past failures (its
// dependents skipped, failures recorded for Failures) while the engine's
// other graphs stay fail-fast, and vice versa. Must be called before
// Wait.
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

// Failures returns the failed and skipped jobs of this graph alone, in
// completion order — the per-request twin of Runner.Failures, with no
// log cap.
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
		label:   spec.Label,
		key:     spec.Key,
		lazy:    spec.Lazy,
		noStore: spec.NoStore,
		done:    make(chan struct{}),
		run: func(ctx context.Context) (any, error) {
			return run(ctx)
		},
		decode: func(b []byte) (any, error) {
			var v T
			err := json.Unmarshal(b, &v)
			return v, err
		},
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

// resolve walks from the demanded (non-lazy, incomplete) jobs, probing
// the on-disk cache, and returns the jobs that must execute. A cache hit
// stops the walk, so the dependencies of fully-cached sweeps are never
// demanded.
func (g *Graph) resolve(ctx context.Context) []*job {
	var need []*job
	var visit func(j *job)
	visit = func(j *job) {
		if j.visited {
			return
		}
		j.visited = true
		if j.isDone() {
			return
		}
		if !j.noStore && g.r.opts.Cache != nil && !j.key.IsZero() {
			if v, ok := g.r.opts.Cache.Get(ctx, j.key, j.decode); ok {
				g.r.cacheHits.Add(1)
				g.r.memoPut(j.key, v)
				j.complete(v, nil)
				return
			}
		}
		need = append(need, j)
		for _, d := range j.deps {
			visit(d)
		}
	}
	for _, j := range g.jobs {
		if !j.lazy {
			visit(j)
		}
	}
	return need
}

// execute runs the needed jobs: one goroutine per job waiting on its
// dependencies, gated by the Runner-wide semaphore of Workers slots
// (shared with every other graph in flight). Each job runs through
// attempt (panic recovery, timeout, transient retry); under the graph's
// keep-going policy a failure is recorded and its dependents are skipped
// instead of cancelling the graph.
func (g *Graph) execute(parent context.Context, need []*job) error {
	if len(need) == 0 {
		newProgress(g.r.opts.Progress, g.fns, 0).summary(len(g.jobs), 0, 0, 0, 0, g.r.opts.Workers)
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
		sem                       = g.r.sem
		wg                        sync.WaitGroup
		executed, failed, skipped atomic.Int64
	)
	keep := g.keepGoing
	prog := newProgress(g.r.opts.Progress, g.fns, len(need))
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
						g.r.recordFailure(g, je)
						g.r.opts.Journal.JobFail(ctx, je)
						prog.jobSkipped(j.label, d.label)
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
			defer func() { <-sem }()
			if ctx.Err() != nil {
				j.complete(nil, ctx.Err())
				return
			}
			g.r.opts.Journal.JobStart(ctx, j.label, keyStr(j.key))
			v, shared, err := g.runLeased(ctx, j)
			g.r.executed.Add(1)
			executed.Add(1)
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
				g.r.recordFailure(g, je)
				g.r.opts.Journal.JobFail(ctx, je)
				prog.jobFailed(j.label, je.Cause())
				j.complete(nil, je)
				if !keep {
					fail(je)
				}
				return
			}
			j.complete(v, nil)
			if !j.key.IsZero() {
				g.r.memoPut(j.key, v)
			}
			if shared {
				g.r.opts.Journal.JobShared(ctx, j.label, keyStr(j.key))
			} else {
				g.r.opts.Journal.JobDone(ctx, j.label, keyStr(j.key), j.attempts)
			}
			prog.jobDone(j.label)
		}(j)
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	if err := parent.Err(); err != nil {
		return err
	}
	prog.summary(len(g.jobs), len(need), int(executed.Load()), int(failed.Load()), int(skipped.Load()), g.r.opts.Workers)
	return nil
}

// runLeased executes a job, coalescing with other processes when
// cross-process leases are enabled on the cache. The winner of a key's
// lease runs the job and stores the result durably *before* releasing
// the lease, so losers polling the cache observe result-then-release,
// never a gap. Losers wait on the winner's entry instead of recomputing
// (shared=true); if the winner dies its lease expires and is taken over,
// so the loop always terminates in a local execution or a shared result.
// Jobs without a storable key — and any lease-layer error — fall back to
// plain local execution: leases are an optimisation, never a gate.
func (g *Graph) runLeased(ctx context.Context, j *job) (v any, shared bool, err error) {
	c := g.r.opts.Cache
	ls := c.leaseManager()
	if ls == nil || j.key.IsZero() || j.noStore {
		v, err = g.runStored(ctx, j)
		return v, false, err
	}
	for {
		state, release := ls.tryAcquire(ctx, j.key)
		switch state {
		case leaseWon:
			g.r.leaseAcquired.Add(1)
			v, err = g.runStored(ctx, j)
			release()
			return v, false, err
		case leaseErr:
			v, err = g.runStored(ctx, j)
			return v, false, err
		default: // leaseLost: another live process is computing this key
			v, ok, werr := ls.wait(ctx, c, j.key, j.decode)
			if werr != nil {
				return nil, false, werr
			}
			if ok {
				g.r.leaseShared.Add(1)
				return v, true, nil
			}
			// The winner vanished without storing (crash or failure):
			// re-contend and, if we win, run the job ourselves.
		}
	}
}

// runStored runs a job's attempt loop and, on success, stores the result
// in the on-disk cache (best-effort). Storing here — inside the lease
// window rather than after it — is what makes cross-process hand-off
// race-free.
func (g *Graph) runStored(ctx context.Context, j *job) (any, error) {
	v, err := g.attempt(ctx, j)
	if err == nil && !j.key.IsZero() && !j.noStore && g.r.opts.Cache != nil {
		if data, merr := json.Marshal(v); merr == nil {
			// A failed Put must not fail the job: lease waiters detect the
			// missing store ("winner vanished without storing") and re-run.
			g.r.opts.Cache.Put(ctx, j.key, data) //splash:allow durability best-effort store; waiters re-contend on a missing cache entry, so a lost Put costs a re-run, not correctness
		}
	}
	return v, err
}

// attempt runs a job up to 1+Retries times. Only failures marked
// Transient are retried (with exponential backoff from RetryBackoff);
// panics, timeouts and permanent errors consume the job immediately.
func (g *Graph) attempt(ctx context.Context, j *job) (any, error) {
	maxAttempts := 1 + g.r.opts.Retries
	for att := 1; ; att++ {
		j.attempts = att
		v, err := g.runOnce(ctx, j)
		if err == nil || ctx.Err() != nil {
			return v, err
		}
		if att >= maxAttempts || errors.Is(err, ErrTimeout) || !IsTransient(err) {
			return v, err
		}
		g.r.retried.Add(1)
		backoff := g.r.opts.RetryBackoff << (att - 1)
		select {
		case <-time.After(backoff):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// runOnce executes a single attempt on its own goroutine so that a panic
// (the job's own, or an injected one) is recovered into a JobError and a
// timeout can abandon the attempt without stalling the worker. The
// outcome channel is buffered: an abandoned attempt's goroutine delivers
// its result and exits instead of leaking, as soon as the job observes
// its context.
func (g *Graph) runOnce(ctx context.Context, j *job) (any, error) {
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
	go func() {
		defer func() {
			if p := recover(); p != nil {
				ch <- outcome{err: &JobError{
					Panicked: true,
					Stack:    string(debug.Stack()),
					Err:      fmt.Errorf("panic: %v", p),
				}}
			}
		}()
		if err := g.r.opts.Fault.Do(rctx, "job:"+j.label); err != nil {
			ch <- outcome{err: err}
			return
		}
		v, err := j.run(rctx)
		ch <- outcome{v: v, err: err}
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

// normalizeTimeout classifies an attempt error caused by the attempt's
// own deadline as ErrTimeout. A job that observes its context and
// returns the deadline error races the scheduler's timeout branch; both
// paths must classify the failure identically.
func (g *Graph) normalizeTimeout(ctx, rctx context.Context, err error) error {
	if err == nil || ctx.Err() != nil || rctx.Err() == nil || !errors.Is(err, rctx.Err()) {
		return err
	}
	g.r.timedOut.Add(1)
	return fmt.Errorf("%w after %v", ErrTimeout, g.r.opts.Timeout)
}

// asJobError converts an attempt's error into the job's structured
// failure record. Panic JobErrors built inside runOnce are adopted;
// everything else is wrapped.
func asJobError(j *job, err error) *JobError {
	var je *JobError
	if errors.As(err, &je) && je.Panicked && je.Label == "" {
		je.Label = j.label
		je.Key = keyStr(j.key)
		je.Attempts = j.attempts
		return je
	}
	return &JobError{
		Label:    j.label,
		Key:      keyStr(j.key),
		Attempts: j.attempts,
		TimedOut: errors.Is(err, ErrTimeout),
		Err:      err,
	}
}
