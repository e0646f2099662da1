package core

import (
	"context"
	"fmt"
	"sort"
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
	// CacheSizes are the Figure-3 sweep points (workingsets only);
	// default 1 KB–1 MB powers of two.
	CacheSizes []int `json:"cacheSizes,omitempty"`
	// Assocs are the Figure-3 associativities (workingsets only);
	// 0 means fully associative. Default {4}.
	Assocs []int `json:"assocs,omitempty"`
	// CacheSize is the fixed cache capacity of traffic and linesize
	// experiments; default 1 MB.
	CacheSize int `json:"cacheSize,omitempty"`
	// LineSizes are the Figure-7/8 sweep points (linesize only); default
	// 8 B–256 B powers of two.
	LineSizes []int `json:"lineSizes,omitempty"`
	// Opts are per-program option overrides applied on top of the scale's
	// defaults (single-app requests only; ignored otherwise).
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

// Canonical validates the request and fills defaults, returning the
// canonical form: two requests asking for the same experiment normalize
// to identical values, so their Keys collide and splashd coalesces them.
// Canonical is idempotent. Apps order is preserved (it orders the result
// rows); ProcList is deduplicated and sorted.
func (r Request) Canonical() (Request, error) {
	switch r.Kind {
	case KindTable1, KindSpeedups, KindSync, KindWorkingSets,
		KindWorkingSetsSampled, KindTraffic, KindLineSize, KindTable3,
		KindResults:
	case "":
		return r, fmt.Errorf("core: request missing kind (want one of %s)", strings.Join(Kinds(), ", "))
	default:
		return r, fmt.Errorf("core: unknown kind %q (want one of %s)", r.Kind, strings.Join(Kinds(), ", "))
	}

	if len(r.Apps) == 0 {
		r.Apps = append([]string(nil), Suite...)
	} else {
		r.Apps = append([]string(nil), r.Apps...)
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
	}
	if len(r.Opts) > 0 && len(r.Apps) != 1 {
		return r, fmt.Errorf("core: opts require a single-app request (got %d apps)", len(r.Apps))
	}
	if len(r.Opts) > maxReqOpts {
		return r, fmt.Errorf("core: too many opts (%d > %d)", len(r.Opts), maxReqOpts)
	}

	if r.Procs == 0 {
		r.Procs = 32
	}
	if r.Procs < 1 || r.Procs > maxReqProcs {
		return r, fmt.Errorf("core: procs %d out of range [1, %d]", r.Procs, maxReqProcs)
	}
	if len(r.ProcList) == 0 {
		r.ProcList = []int{1, 2, 4, 8, 16, 32}
	} else {
		if len(r.ProcList) > maxReqListPoints {
			return r, fmt.Errorf("core: procList has %d points (max %d)", len(r.ProcList), maxReqListPoints)
		}
		seen := make(map[int]bool, len(r.ProcList))
		var list []int
		for _, p := range r.ProcList {
			if p < 1 || p > maxReqProcs {
				return r, fmt.Errorf("core: procList entry %d out of range [1, %d]", p, maxReqProcs)
			}
			if !seen[p] {
				seen[p] = true
				list = append(list, p)
			}
		}
		sort.Ints(list)
		r.ProcList = list
	}

	if _, err := ParseScale(r.Scale); err != nil {
		return r, err
	}
	if r.Scale == "" {
		r.Scale = "sweep"
	}

	if len(r.CacheSizes) == 0 {
		r.CacheSizes = DefaultCacheSizes()
	} else if len(r.CacheSizes) > maxReqListPoints {
		return r, fmt.Errorf("core: cacheSizes has %d points (max %d)", len(r.CacheSizes), maxReqListPoints)
	}
	for _, cs := range r.CacheSizes {
		if !isPow2(cs) || cs < 256 || cs > maxReqCacheBytes {
			return r, fmt.Errorf("core: cache size %d not a power of two in [256, %d]", cs, maxReqCacheBytes)
		}
	}
	if r.CacheSize == 0 {
		r.CacheSize = 1 << 20
	}
	if !isPow2(r.CacheSize) || r.CacheSize < 256 || r.CacheSize > maxReqCacheBytes {
		return r, fmt.Errorf("core: cache size %d not a power of two in [256, %d]", r.CacheSize, maxReqCacheBytes)
	}
	if len(r.Assocs) == 0 {
		r.Assocs = []int{4}
	}
	for _, a := range r.Assocs {
		if a != 0 && (!isPow2(a) || a > 64) {
			return r, fmt.Errorf("core: associativity %d not 0 (full) or a power of two ≤ 64", a)
		}
	}
	if len(r.LineSizes) == 0 {
		r.LineSizes = DefaultLineSizes()
	} else if len(r.LineSizes) > maxReqListPoints {
		return r, fmt.Errorf("core: lineSizes has %d points (max %d)", len(r.LineSizes), maxReqListPoints)
	}
	for _, ls := range r.LineSizes {
		if !isPow2(ls) || ls < 8 || ls > maxReqLineBytes {
			return r, fmt.Errorf("core: line size %d not a power of two in [8, %d]", ls, maxReqLineBytes)
		}
	}
	if r.SampleRate == 0 {
		r.SampleRate = 0.01
	}
	if r.SampleRate < 0 || r.SampleRate > 1 {
		return r, fmt.Errorf("core: sample rate %v out of range (0, 1]", r.SampleRate)
	}
	if r.SampleSeed == 0 {
		r.SampleSeed = 1
	}
	if r.TimeoutMillis < 0 {
		return r, fmt.Errorf("core: negative timeoutMs %d", r.TimeoutMillis)
	}
	r.Opts = canonOpts(r.Opts)
	return r, nil
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

// reportOptions shapes the canonical request into the options of the
// full-characterization path (kind "results").
func (r Request) reportOptions() ReportOptions {
	scale, _ := ParseScale(r.Scale)
	return ReportOptions{
		Apps:       r.Apps,
		Procs:      r.Procs,
		ProcList:   r.ProcList,
		Scale:      scale,
		CacheSizes: r.CacheSizes,
		LineSizes:  r.LineSizes,
		// SampleRate/SampleSeed deliberately stay zero — "results" reports
		// the exact curves; the sampled estimator is its own kind (or
		// characterize -sample-rate).
	}
}

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
	scale, _ := ParseScale(cr.Scale)
	sc := e.Scoped(ScopeOptions{
		Context:    ctx,
		KeepGoing:  cr.KeepGoing,
		OnProgress: onProgress,
	})

	if cr.Kind == KindResults {
		return sc.CollectResults(cr.reportOptions())
	}

	res := &Results{Procs: cr.Procs}
	switch cr.Kind {
	case KindTable1:
		res.Table1, err = sc.Table1(cr.Apps, cr.Procs, scale)
	case KindSpeedups:
		res.Speedups, err = sc.Speedups(cr.Apps, cr.ProcList, scale)
	case KindSync:
		res.Sync, err = sc.SyncProfiles(cr.Apps, cr.Procs, scale)
	case KindWorkingSets:
		res.MissCurves, err = sc.WorkingSets(cr.Apps, cr.Procs, cr.CacheSizes, cr.Assocs, scale)
		if err == nil {
			var fourWay []MissCurve
			for _, c := range res.MissCurves {
				if c.Assoc == 4 {
					fourWay = append(fourWay, c)
				}
			}
			res.Table2 = Table2(fourWay)
			for _, c := range fourWay {
				if c.Failed == "" {
					res.PruneAdvice = append(res.PruneAdvice, Prune(c))
				}
			}
		}
	case KindWorkingSetsSampled:
		res.Sampled, err = sc.WorkingSetsSampled(cr.Apps, cr.Procs, cr.CacheSizes, cr.SampleRate, cr.SampleSeed, scale)
	case KindTraffic:
		if len(cr.Apps) == 1 {
			var pts []TrafficPoint
			pts, err = sc.Traffic(cr.Apps[0], cr.ProcList, cr.CacheSize, scale, cr.Opts)
			if err == nil {
				res.Traffic = [][]TrafficPoint{pts}
			}
		} else {
			res.Traffic, err = sc.TrafficSuite(cr.Apps, cr.ProcList, cr.CacheSize, scale)
		}
	case KindLineSize:
		res.LineSize, err = sc.LineSizeSuite(cr.Apps, cr.Procs, cr.CacheSize, cr.LineSizes, scale)
	case KindTable3:
		lowP := cr.ProcList[0]
		if lowP < 2 && len(cr.ProcList) > 1 {
			lowP = cr.ProcList[1]
		}
		res.Table3, err = sc.Table3(cr.Apps, lowP, cr.ProcList[len(cr.ProcList)-1], scale)
	}
	if err != nil {
		return nil, err
	}
	if cr.KeepGoing {
		if fails := sc.Failures(); len(fails) > 0 {
			m := NewFailureManifest(fails)
			res.Failures = m.Failures
			return res, fmt.Errorf("core: %d experiment(s) lost: %w", m.Count, ErrFailures)
		}
	}
	return res, nil
}
