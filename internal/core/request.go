package core

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"time"

	"splash2/internal/apps"
	"splash2/internal/runner"
)

// Request is the request-shaped entry point into the characterization
// engine: one experiment spec — which table or figure, over which
// programs and machine parameters — expressed as plain data, so it can
// arrive as a JSON body or URL query (splashd) as easily as from CLI
// flags. A canonicalized Request has a content-addressed Key derived
// from the same suite-versioned hashing as the result cache, which is
// what splashd's coalescing and ETag semantics key on.
type Request struct {
	// Kind selects the experiment: one of Kinds (table1, speedups, sync,
	// workingsets, traffic, linesize, table3, results).
	Kind string `json:"kind"`
	// Apps is the program subset; empty selects the full suite. Order is
	// significant (it is the row order of the result).
	Apps []string `json:"apps,omitempty"`
	// Procs is the processor count for fixed-count experiments
	// (default 32).
	Procs int `json:"procs,omitempty"`
	// ProcList holds the sweep points of scaling experiments (speedups,
	// traffic, table3); it is deduplicated and sorted ascending.
	ProcList []int `json:"procList,omitempty"`
	// Scale names the problem sizes: "sweep" (default), "default" or
	// "paper".
	Scale string `json:"scale,omitempty"`
	// CacheSizes are the Figure-3 sweep points (workingsets,
	// working-set-sampled and results);
	// default 1 KB–1 MB powers of two.
	CacheSizes []int `json:"cacheSizes,omitempty"`
	// Assocs are the Figure-3 associativities (workingsets and results);
	// 0 means fully associative. Default {4}.
	Assocs []int `json:"assocs,omitempty"`
	// CacheSize is the fixed cache capacity of traffic and linesize
	// experiments (and of results'); default 1 MB.
	CacheSize int `json:"cacheSize,omitempty"`
	// LineSizes are the Figure-7/8 sweep points (linesize and results); default
	// 8 B–256 B powers of two.
	LineSizes []int `json:"lineSizes,omitempty"`
	// Opts are per-program option overrides applied on top of the scale's
	// defaults in every section of a single-app request; Canonical
	// rejects them on a multi-app one.
	Opts map[string]int `json:"opts,omitempty"`
	// SampleRate is the spatial sampling rate of the sampled working-set
	// estimator (working-set-sampled only); default 0.01, range (0, 1].
	SampleRate float64 `json:"sampleRate,omitempty"`
	// SampleSeed seeds the estimator's spatial hash (default 1).
	SampleSeed uint64 `json:"sampleSeed,omitempty"`
	// KeepGoing completes the experiment past failures: lost rows carry
	// FAILED placeholders and the response includes a failure manifest.
	KeepGoing bool `json:"keepGoing,omitempty"`
	// TimeoutMillis is the request deadline in milliseconds: the request
	// fails with context.DeadlineExceeded (splashd: 504) when its
	// experiments cannot finish in time, instead of running doomed work
	// to completion. 0 means no deadline. The deadline is excluded from
	// the request's Key/ETag — how long a client will wait does not
	// change what the answer is, so impatient and patient requests for
	// the same experiment still coalesce.
	TimeoutMillis int64 `json:"timeoutMs,omitempty"`
}

// Kinds lists the accepted Request.Kind values in presentation order.
func Kinds() []string {
	return []string{
		KindTable1, KindSpeedups, KindSync, KindWorkingSets,
		KindWorkingSetsSampled, KindTraffic, KindLineSize, KindTable3,
		KindResults,
	}
}

// Request kinds: one per paper table/figure plus the full bundle.
const (
	KindTable1      = "table1"      // Table 1: instruction breakdown
	KindSpeedups    = "speedups"    // Figure 1: PRAM speedups
	KindSync        = "sync"        // Figure 2: synchronization profiles
	KindWorkingSets = "workingsets" // Figure 3 + Table 2 + pruning advice
	KindTraffic     = "traffic"     // Figures 4–6: traffic breakdowns
	KindLineSize    = "linesize"    // Figures 7–8: line-size sweeps
	KindTable3      = "table3"      // Table 3: comm-to-comp growth
	KindResults     = "results"     // the full characterization bundle

	// KindWorkingSetsSampled is Figure 3's fully-associative curve by
	// SHARDS-sampled reuse-distance estimation with confidence bands — a
	// cheap preview of KindWorkingSets.
	KindWorkingSetsSampled = "working-set-sampled"
)

// ParseScale resolves a scale name ("" selects sweep, the multi-point
// default).
func ParseScale(name string) (Scale, error) {
	switch name {
	case "", "sweep":
		return SweepScale, nil
	case "default":
		return DefaultScale, nil
	case "paper":
		return PaperScale, nil
	}
	return 0, fmt.Errorf("core: unknown scale %q (want sweep, default or paper)", name)
}

// ScaleName is ParseScale's inverse.
func ScaleName(s Scale) string {
	switch s {
	case DefaultScale:
		return "default"
	case PaperScale:
		return "paper"
	default:
		return "sweep"
	}
}

// Request validation bounds. These are admission sanity limits for a
// service accepting untrusted specs, not physical limits: the memory
// system itself rejects inconsistent configurations (memsys.Config
// Validate) when a job runs.
const (
	maxReqProcs      = 64 // the directory's full-map sharer bitset width
	maxReqListPoints = 64
	maxReqOpts       = 32
	maxReqCacheBytes = 1 << 28
	maxReqLineBytes  = 1 << 12
)

func isPow2(v int) bool { return v > 0 && v&(v-1) == 0 }

// checkSizes validates a list field of power-of-two byte sizes in [lo, hi].
func checkSizes(field, what string, sizes []int, lo, hi int) error {
	if len(sizes) > maxReqListPoints {
		return fmt.Errorf("core: %s has %d points (max %d)", field, len(sizes), maxReqListPoints)
	}
	for _, v := range sizes {
		if !isPow2(v) || v < lo || v > hi {
			return fmt.Errorf("core: %s %d not a power of two in [%d, %d]", what, v, lo, hi)
		}
	}
	return nil
}

// Canonical validates the request and fills defaults, returning the
// canonical form: two requests asking for the same experiment normalize
// to identical values, so their Keys collide and splashd coalesces them.
// Canonical is idempotent. Apps order is preserved (it orders the result
// rows); ProcList is deduplicated and sorted.
func (r Request) Canonical() (Request, error) {
	if r.Kind == "" {
		return r, fmt.Errorf("core: request missing kind (want one of %s)", strings.Join(Kinds(), ", "))
	}
	if !slices.Contains(Kinds(), r.Kind) {
		return r, fmt.Errorf("core: unknown kind %q (want one of %s)", r.Kind, strings.Join(Kinds(), ", "))
	}

	seen := make(map[string]bool, len(r.Apps))
	for _, name := range r.Apps {
		if _, err := apps.Get(name); err != nil {
			return r, fmt.Errorf("core: %w", err)
		}
		if seen[name] {
			return r, fmt.Errorf("core: duplicate app %q", name)
		}
		seen[name] = true
	}
	r = r.withDefaults()
	r.Apps = append([]string(nil), r.Apps...)
	if len(r.Opts) > 0 && len(r.Apps) != 1 {
		return r, fmt.Errorf("core: opts require a single-app request (got %d apps)", len(r.Apps))
	}
	if len(r.Opts) > maxReqOpts {
		return r, fmt.Errorf("core: too many opts (%d > %d)", len(r.Opts), maxReqOpts)
	}

	if r.Procs < 1 || r.Procs > maxReqProcs {
		return r, fmt.Errorf("core: procs %d out of range [1, %d]", r.Procs, maxReqProcs)
	}
	if len(r.ProcList) > maxReqListPoints {
		return r, fmt.Errorf("core: procList has %d points (max %d)", len(r.ProcList), maxReqListPoints)
	}
	for _, p := range r.ProcList {
		if p < 1 || p > maxReqProcs {
			return r, fmt.Errorf("core: procList entry %d out of range [1, %d]", p, maxReqProcs)
		}
	}
	r.ProcList = slices.Clone(r.ProcList)
	slices.Sort(r.ProcList)
	r.ProcList = slices.Compact(r.ProcList)

	if _, err := ParseScale(r.Scale); err != nil {
		return r, err
	}

	if err := checkSizes("cacheSizes", "cache size", r.CacheSizes, 256, maxReqCacheBytes); err != nil {
		return r, err
	}
	if err := checkSizes("cacheSize", "cache size", []int{r.CacheSize}, 256, maxReqCacheBytes); err != nil {
		return r, err
	}
	for _, a := range r.Assocs {
		if a != 0 && (!isPow2(a) || a > 64) {
			return r, fmt.Errorf("core: associativity %d not 0 (full) or a power of two ≤ 64", a)
		}
	}
	if err := checkSizes("lineSizes", "line size", r.LineSizes, 8, maxReqLineBytes); err != nil {
		return r, err
	}
	if r.SampleRate == 0 {
		r.SampleRate = 0.01
	}
	if r.SampleRate < 0 || r.SampleRate > 1 {
		return r, fmt.Errorf("core: sample rate %v out of range (0, 1]", r.SampleRate)
	}
	if r.TimeoutMillis < 0 {
		return r, fmt.Errorf("core: negative timeoutMs %d", r.TimeoutMillis)
	}
	r.Opts = canonOpts(r.Opts)
	return r, nil
}

// withDefaults fills the unset fields the sections read with the
// defaults their doc comments name. SampleRate is the exception: a zero
// rate keeps the sampled estimate out of a report and of results.
func (r Request) withDefaults() Request {
	if len(r.Apps) == 0 {
		r.Apps = Suite
	}
	if r.Procs == 0 {
		r.Procs = 32
	}
	if len(r.ProcList) == 0 {
		r.ProcList = []int{1, 2, 4, 8, 16, 32}
	}
	if r.Scale == "" {
		r.Scale = "sweep"
	}
	if len(r.CacheSizes) == 0 {
		r.CacheSizes = DefaultCacheSizes()
	}
	if r.CacheSize == 0 {
		r.CacheSize = 1 << 20
	}
	if len(r.Assocs) == 0 {
		r.Assocs = []int{4}
	}
	if len(r.LineSizes) == 0 {
		r.LineSizes = DefaultLineSizes()
	}
	if r.SampleSeed == 0 {
		r.SampleSeed = 1
	}
	return r
}

// overrides returns one program's option overrides: the scale's problem
// size with the request's Opts on top (Opts win). Every section takes
// its overrides from here, so an opts-free request keys exactly as its
// scale alone does.
func (r Request) overrides(app string) map[string]int {
	scale, _ := ParseScale(r.Scale)
	if len(r.Opts) == 0 {
		return scale.Overrides(app)
	}
	out := map[string]int{}
	//splash:allow determinism key-wise merge map->map; iteration order cannot affect the merged result
	for k, v := range scale.Overrides(app) {
		out[k] = v
	}
	//splash:allow determinism key-wise merge map->map; iteration order cannot affect the merged result
	for k, v := range r.Opts {
		out[k] = v
	}
	return out
}

// trace is the identity of one program's recorded trace at req.Procs.
func (r Request) trace(app string) traceIdent {
	return traceIdent{App: app, Procs: r.Procs, Opts: canonOpts(r.overrides(app))}
}

// Deadline returns the request deadline as a duration (0 = none).
func (r Request) Deadline() time.Duration {
	return time.Duration(r.TimeoutMillis) * time.Millisecond
}

// Key is the request's content address: the suite-versioned hash of its
// canonical form, aligned with the result cache's keying so a request's
// identity changes exactly when its results could. Call on the canonical
// form (Key canonicalizes internally and panics on an invalid request —
// validate first).
func (r Request) Key() runner.Key {
	cr, err := r.Canonical()
	if err != nil {
		panic(fmt.Sprintf("core: Key of invalid request: %v", err))
	}
	// The deadline is patience, not identity: requests differing only in
	// TimeoutMillis ask for the same experiment and must coalesce.
	cr.TimeoutMillis = 0
	return runner.KeyOf("request", cr)
}

// ETag renders the request key as a strong HTTP entity tag. Because
// experiments are deterministic and the key folds in the suite version,
// a response's ETag changes exactly when its body could: a client
// revalidating with If-None-Match needs no execution at all to be told
// its copy is current.
func (r Request) ETag() string { return `"` + r.Key().String() + `"` }

// Do executes one request on a request-scoped view of the engine and
// returns its results: the sections the kind selects, plus the failure
// manifest of a keep-going request that lost experiments (then err wraps
// ErrFailures, as with CollectResults). Progress events for this request
// alone stream to onProgress (nil disables). Do is safe to call from
// many goroutines at once; concurrent requests share the engine's worker
// pool, memo and cache.
func (e *Engine) Do(ctx context.Context, req Request, onProgress runner.ProgressFunc) (*Results, error) {
	cr, err := req.Canonical()
	if err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if d := cr.Deadline(); d > 0 {
		// Min semantics: never extend a deadline the caller already set.
		if cur, ok := ctx.Deadline(); !ok || time.Until(cur) > d { //splash:allow determinism deadline plumbing; cancellation timing, never in results
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, d)
			defer cancel()
		}
	}
	if cr.Kind == KindResults {
		// Results carry the exact curves; the sampled estimate is its own
		// kind, or a report's SampleRate.
		cr.SampleRate = 0
	}
	return e.Scoped(ScopeOptions{
		Context:    ctx,
		KeepGoing:  cr.KeepGoing,
		OnProgress: onProgress,
	}).collect(cr)
}
