package serve

import (
	"bytes"
	"context"
	"sync"

	"splash2/internal/core"
	"splash2/internal/runner"
)

// flight is one in-progress experiment execution, shared by every
// request that asked for the same canonical experiment while it ran.
// Requests are content-addressed (core.Request.Key), so "the same
// experiment" is exact: any two requests with equal keys would produce
// byte-identical responses, which is what makes handing one request's
// result to another correct.
type flight struct {
	key  string
	done chan struct{} // closed when body/err are final

	// ctx bounds the execution (the server's base context, cut short by
	// the leader's deadline). It is kept here so join can tell a doomed
	// flight from a live one.
	ctx context.Context

	// Results, final under done.
	body     []byte // the rendered JSON response (Results.WriteJSON bytes)
	etag     string
	degraded int // failed experiments carried in the body's manifest
	err      error

	// Progress fan-out to streaming subscribers.
	mu   sync.Mutex
	subs map[chan runner.ProgressEvent]struct{}
}

// subscribe attaches a progress listener to the flight. The channel is
// buffered; a subscriber that falls behind loses events rather than
// stalling the experiment (progress sinks must not block). The returned
// cancel detaches and closes the channel.
func (f *flight) subscribe() (<-chan runner.ProgressEvent, func()) {
	ch := make(chan runner.ProgressEvent, 256)
	f.mu.Lock()
	if f.subs == nil {
		f.subs = make(map[chan runner.ProgressEvent]struct{})
	}
	f.subs[ch] = struct{}{}
	f.mu.Unlock()
	var once sync.Once
	return ch, func() {
		once.Do(func() {
			f.mu.Lock()
			delete(f.subs, ch)
			f.mu.Unlock()
			close(ch)
		})
	}
}

// publish fans one progress event out to the subscribers, dropping it
// for any subscriber whose buffer is full.
func (f *flight) publish(ev runner.ProgressEvent) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for ch := range f.subs {
		select {
		case ch <- ev:
		default: // slow subscriber: drop, never block the workers
		}
	}
}

// coalescer deduplicates concurrent identical requests onto single
// executions (singleflight keyed by the request's content address) and
// bounds how many executions the daemon accepts at once: up to inflight
// flights run on the engine while up to queue more wait for a slot;
// beyond that join refuses and the caller sheds load with 429.
//
// Flights are keyed by the same hash as the result cache, so the
// admission pipeline composes: a repeated request hits, in order, the
// HTTP validator (ETag, no work at all), a live flight (shares an
// in-progress execution), the engine memo/disk cache (re-serves a
// completed one), and only then real execution.
type coalescer struct {
	engine *core.Engine

	slots chan struct{} // execution permits (capacity = inflight limit)
	limit int           // inflight + queued cap

	mu      sync.Mutex
	flights map[string]*flight
	active  int // flights admitted and not yet finished

	// Cumulative counters (metrics).
	started   int64 // flights that ran (leaders)
	coalesced int64 // requests served by joining an existing flight
	rejected  int64 // joins refused because the pipeline was full

	// hookFlightStart, when non-nil, runs in the flight goroutine before
	// the engine call. Tests use it to hold flights open deterministically.
	hookFlightStart func(key string)
}

func newCoalescer(engine *core.Engine, inflight, queue int) *coalescer {
	return &coalescer{
		engine:  engine,
		slots:   make(chan struct{}, inflight),
		limit:   inflight + queue,
		flights: make(map[string]*flight),
	}
}

// join returns the flight computing req, starting one if none is live.
// ok=false means the daemon is saturated (inflight + queued flights at
// the cap) and the caller must shed the request; joining an existing
// flight always succeeds — it adds no load. A flight whose context has
// already expired is not live even while it is still registered (its
// goroutine has yet to notice): joining it would hand a patient client
// the impatient leader's 504, so a fresh flight replaces it under the
// same key.
//
// The flight runs detached on ctx (the server's base context, not any
// one request's): a client disconnecting mid-flight never cancels an
// execution other clients share — and since results are cached, even a
// flight every client abandoned completes into cache warmth rather than
// wasted work.
func (c *coalescer) join(ctx context.Context, req core.Request) (*flight, bool) {
	key := req.Key().String()
	c.mu.Lock()
	if f, live := c.flights[key]; live && f.ctx.Err() == nil {
		c.coalesced++
		c.mu.Unlock()
		return f, true
	}
	if c.active >= c.limit {
		c.rejected++
		c.mu.Unlock()
		return nil, false
	}
	// The leader's deadline bounds the flight context: doomed work is
	// cancelled whether it is still queued for a slot or already
	// executing, so an expired request never wedges the pipeline. (The
	// deadline is excluded from the content address, so a patient and an
	// impatient client still coalesce — the leader's patience governs.)
	fctx, cancel := ctx, context.CancelFunc(func() {})
	if d := req.Deadline(); d > 0 {
		fctx, cancel = context.WithTimeout(ctx, d)
	}
	f := &flight{key: key, etag: req.ETag(), done: make(chan struct{}), ctx: fctx}
	c.flights[key] = f
	c.active++
	c.started++
	c.mu.Unlock()

	go func() {
		defer cancel()
		c.run(req, f)
	}()
	return f, true
}

// run executes one flight: wait for an execution slot, run the request
// through a scoped engine view with progress streaming to subscribers,
// render the response bytes once, finish.
func (c *coalescer) run(req core.Request, f *flight) {
	ctx := f.ctx
	defer func() {
		c.mu.Lock()
		if c.flights[f.key] == f { // a fresh flight may have replaced a doomed one
			delete(c.flights, f.key)
		}
		c.active--
		c.mu.Unlock()
		close(f.done)
	}()

	select {
	case c.slots <- struct{}{}:
		defer func() { <-c.slots }()
	case <-ctx.Done():
		f.err = ctx.Err()
		return
	}
	if hook := c.hookFlightStart; hook != nil {
		hook(f.key)
	}

	res, err := c.engine.Do(ctx, req, f.publish)
	if err != nil && res == nil {
		f.err = err
		return
	}
	// A degraded keep-going result (ErrFailures) still has a body: the
	// surviving sections plus the failure manifest, exactly as the CLI
	// prints them.
	var buf bytes.Buffer
	if werr := res.WriteJSON(&buf); werr != nil {
		f.err = werr
		return
	}
	f.body = buf.Bytes()
	f.degraded = len(res.Failures)
}

// counts snapshots the coalescer's cumulative and instantaneous state.
func (c *coalescer) counts() (started, coalesced, rejected int64, active, executing int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.started, c.coalesced, c.rejected, c.active, len(c.slots)
}

// idle reports whether no flights are live (used by drain).
func (c *coalescer) idle() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.active == 0
}
