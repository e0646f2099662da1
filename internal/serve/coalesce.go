package serve

import (
	"bytes"
	"context"
	"sync"

	"splash2/internal/core"
	"splash2/internal/runner"
)

// flight is one experiment execution, live or finished, shared by every
// request that asked for the same canonical experiment. Requests are
// content-addressed (core.Request.Key), so "the same experiment" is
// exact: any two requests with equal keys would produce byte-identical
// responses, which is what makes handing one request's result to another
// correct — while the flight runs, and after it finished cleanly.
type flight struct {
	key  string
	done chan struct{} // closed when body/err are final

	// ctx bounds the execution (the server's base context, cut short by
	// the leader's deadline). It is kept here so join can tell a doomed
	// flight from a live one.
	ctx context.Context

	// retained is set, under coalescer.mu, when the flight finished
	// cleanly and stays registered to answer every later request for its
	// key.
	retained bool

	// Results, final under done.
	body     []byte // the rendered JSON response (Results.WriteJSON bytes)
	degraded int    // failed experiments carried in the body's manifest
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

// coalescer deduplicates identical requests onto single executions
// (singleflight keyed by the request's content address) and bounds how
// many executions the daemon accepts at once: up to inflight flights run
// on the engine while up to queue more wait for a slot; beyond that join
// refuses and the caller sheds load with 429.
//
// Flights are keyed by the same hash as the result cache, so the
// admission pipeline composes: a repeated request hits, in order, the
// HTTP validator (ETag, no work at all), a live or finished flight
// (shares an execution or the bytes it rendered), the engine memo/disk
// cache (re-serves completed jobs), and only then real execution.
//
// A flight that finished cleanly stays registered for as long as the
// daemon runs, while the bodies held fit under maxRetainedBytes. One that
// failed, was cancelled, ran out its deadline, came back degraded or
// finished with the bodies held at the cap is forgotten, so the next
// request for its key starts afresh.
//
// A retained flight can also be found by the raw forms of the requests
// it answered (appendRequestForm): a repeat of a form is one map read
// here, with no parse, Canonical or key hash in front of it. Aliases are
// kept beside the flights they name, in this structure, and a retained
// flight is never unregistered, so an alias cannot outlive its flight.
// Aliases have a budget of their own (aliasOverhead) and never count
// against body retention.
type coalescer struct {
	engine *core.Engine

	slots chan struct{} // execution permits (capacity = inflight limit)
	limit int           // inflight + queued cap

	mu      sync.Mutex
	flights map[string]*flight
	aliases map[string]alias // raw request form -> the retained flight it named
	active  int              // flights admitted and not yet finished

	// Cumulative counters (metrics).
	started       int64 // flights that ran (leaders)
	coalesced     int64 // requests served by joining an existing flight
	rejected      int64 // joins refused because the pipeline was full
	retained      int   // finished flights held
	retainedBytes int64 // sum of their bodies
	aliasBytes    int64 // sum of the aliases' charges
	retainLimit   int64 // cap on retainedBytes, and on retainedBytes + aliasBytes

	// hookFlightStart, when non-nil, runs in the flight goroutine before
	// the engine call. Tests use it to hold flights open deterministically.
	hookFlightStart func(key string)
}

// maxRetainedBytes caps the bodies finished flights hold. The memo does
// not bound them: a request key hashes the order of its apps and its
// keep-going flag, which no job key holds, so a client can mint distinct
// keys whose flights the memo serves in milliseconds without adding an
// entry. Past
// the cap a clean flight is forgotten like a degraded one, and the
// flights already held keep answering.
//
// Aliases are bounded by the same figure from the other side: one is
// held only while bodies and aliases together fit under it, so a flood
// of distinct raw forms (deadline=1s, 2s, …) cannot grow the daemon
// past twice the cap, and never crowds out a body.
const maxRetainedBytes = 32 << 20

// aliasOverhead is what an alias is charged beyond its form's bytes: its
// map entry and the string and pointer words it holds.
const aliasOverhead = 64

// alias is a retained flight as a raw request form names it, with the
// ETag its requests answer with.
type alias struct {
	f    *flight
	etag string
}

func newCoalescer(engine *core.Engine, inflight, queue int) *coalescer {
	return &coalescer{
		engine:      engine,
		slots:       make(chan struct{}, inflight),
		limit:       inflight + queue,
		flights:     make(map[string]*flight),
		aliases:     make(map[string]alias),
		retainLimit: maxRetainedBytes,
	}
}

// join returns the flight for req, whose content address is key: a
// finished or live one, else a fresh one. ok=false means the daemon is
// saturated (inflight + queued flights at the cap) and the caller must
// shed the request; joining an existing flight always succeeds — it adds
// no load. A flight whose context has already expired is not live even
// while it is still registered (its goroutine has yet to notice):
// joining it would hand a patient client the impatient leader's 504, so
// a fresh flight replaces it under the same key. A retained flight is
// joinable whatever its context says: that context is cancelled as soon
// as the flight finishes.
//
// The flight runs detached on ctx (the server's base context, not any
// one request's): a client disconnecting mid-flight never cancels an
// execution other clients share — and since results are cached, even a
// flight every client abandoned completes into cache warmth rather than
// wasted work.
func (c *coalescer) join(ctx context.Context, req core.Request, key string) (*flight, bool) {
	c.mu.Lock()
	if f, ok := c.flights[key]; ok && (f.retained || f.ctx.Err() == nil) {
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
	f := &flight{key: key, done: make(chan struct{}), ctx: fctx}
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

// lookup returns the retained flight a raw request form was answered
// from, if it has an alias. The form is only read: the map index does
// not copy it.
func (c *coalescer) lookup(form []byte) (alias, bool) {
	c.mu.Lock()
	a, ok := c.aliases[string(form)]
	c.mu.Unlock()
	return a, ok
}

// hit counts a request answered from a flight lookup found: a join of a
// finished flight like any other.
func (c *coalescer) hit() {
	c.mu.Lock()
	c.coalesced++
	c.mu.Unlock()
}

// alias lets form find f from now on, answered with etag, if f is
// retained and the alias fits: bodies and aliases together stay under
// retainLimit.
func (c *coalescer) alias(form []byte, f *flight, etag string) {
	charge := int64(len(form)) + aliasOverhead
	c.mu.Lock()
	defer c.mu.Unlock()
	if !f.retained || c.retainedBytes+c.aliasBytes+charge > c.retainLimit {
		return
	}
	if _, ok := c.aliases[string(form)]; ok {
		return
	}
	c.aliases[string(form)] = alias{f: f, etag: etag}
	c.aliasBytes += charge
}

// run executes one flight: wait for an execution slot, run the request
// as one engine graph with progress streaming to subscribers, render the
// response bytes once, finish. Only a clean result that fits under the
// retention cap is retained; any other outcome unregisters the flight.
func (c *coalescer) run(req core.Request, f *flight) {
	ctx := f.ctx
	clean := false
	defer func() {
		c.mu.Lock()
		if c.flights[f.key] == f { // a fresh flight may have replaced a doomed one
			if clean && c.retainedBytes+int64(len(f.body)) <= c.retainLimit {
				f.retained = true
				c.retained++
				c.retainedBytes += int64(len(f.body))
			} else {
				delete(c.flights, f.key)
			}
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
	clean = err == nil && f.degraded == 0
}

// counts snapshots the coalescer's cumulative and instantaneous state.
func (c *coalescer) counts() (started, coalesced, rejected int64, active, executing int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.started, c.coalesced, c.rejected, c.active, len(c.slots)
}

// retention reports how many finished flights are held and the sum of
// their body sizes.
func (c *coalescer) retention() (n int, size int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.retained, c.retainedBytes
}

// aliasing reports how many raw request forms name a retained flight and
// the sum of their charges.
func (c *coalescer) aliasing() (n int, size int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.aliases), c.aliasBytes
}

// idle reports whether no flights are live (used by drain).
func (c *coalescer) idle() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.active == 0
}
