package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"maps"
	"reflect"
	"slices"
	"strconv"
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
// what splashd's coalescing and ETag semantics key on. Which kinds read
// each field, and its text form, is the request table's (requestFields).
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
	// ProcList holds the sweep points of scaling experiments; it is
	// deduplicated and sorted ascending.
	ProcList []int `json:"procList,omitempty"`
	// Scale names the problem sizes: "sweep" (default), "default" or
	// "paper".
	Scale string `json:"scale,omitempty"`
	// CacheSizes are the Figure-3 sweep points; default 1 KB–1 MB powers
	// of two.
	CacheSizes []int `json:"cacheSizes,omitempty"`
	// Assocs are the Figure-3 associativities; 0 means fully
	// associative. Default {4}.
	Assocs []int `json:"assocs,omitempty"`
	// CacheSize is the fixed cache capacity of the traffic and line-size
	// experiments; default 1 MB.
	CacheSize int `json:"cacheSize,omitempty"`
	// LineSizes are the Figure-7/8 sweep points; default 8 B–256 B
	// powers of two.
	LineSizes []int `json:"lineSizes,omitempty"`
	// Opts are per-program option overrides applied on top of the scale's
	// defaults in every section of a single-app request; Canonical
	// rejects them on a multi-app one.
	Opts map[string]int `json:"opts,omitempty"`
	// SampleRate is the spatial sampling rate of the sampled working-set
	// estimator; default 0.01, range (0, 1].
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

// A requestField is one Request field, named by its JSON key: the name
// and parser of its text form (a GET query parameter or CLI flag; none
// for a field only a JSON body sets) and the kinds whose results read it
// (nil: every kind).
type requestField struct {
	field, query string
	kinds        []string
	parse        func(r *Request, v string) error
}

// requestFields is the request table, one row per Request field in
// declaration order: the only place that says which kind reads which
// field. Every body holds Results.Procs; table3 fixes 1 MB caches; the
// sampled estimate is its own kind (ReportOptions.request adds it to a
// report).
var requestFields = []requestField{
	{field: "kind", query: "kind", parse: func(r *Request, v string) error { r.Kind = v; return nil }},
	{field: "apps", query: "apps", parse: func(r *Request, v string) error { r.Apps = strings.Split(v, ","); return nil }},
	{field: "procs", query: "procs", parse: func(r *Request, v string) (err error) { r.Procs, err = strconv.Atoi(v); return err }},
	{field: "procList", query: "plist", kinds: []string{KindSpeedups, KindTraffic, KindTable3, KindResults}, parse: parseProcList},
	{field: "scale", query: "scale", parse: func(r *Request, v string) error { r.Scale = v; return nil }},
	{field: "cacheSizes", kinds: []string{KindWorkingSets, KindWorkingSetsSampled, KindResults}},
	{field: "assocs", kinds: []string{KindWorkingSets, KindResults}},
	{field: "cacheSize", query: "cacheSize", kinds: []string{KindTraffic, KindLineSize, KindResults},
		parse: func(r *Request, v string) (err error) { r.CacheSize, err = strconv.Atoi(v); return err }},
	{field: "lineSizes", kinds: []string{KindLineSize, KindResults}},
	{field: "opts"},
	{field: "sampleRate", query: "sampleRate", kinds: []string{KindWorkingSetsSampled},
		parse: func(r *Request, v string) (err error) { r.SampleRate, err = strconv.ParseFloat(v, 64); return err }},
	{field: "sampleSeed", query: "sampleSeed", kinds: []string{KindWorkingSetsSampled},
		parse: func(r *Request, v string) (err error) { r.SampleSeed, err = strconv.ParseUint(v, 10, 64); return err }},
	{field: "keepGoing", query: "keepGoing", parse: func(r *Request, v string) error { r.KeepGoing = v == "1" || v == "true"; return nil }},
	{field: "timeoutMs", query: "deadline", parse: func(r *Request, v string) error {
		// A non-negative Go duration ("30s", "2m").
		d, err := time.ParseDuration(v)
		if err == nil && d < 0 {
			err = errors.New("negative deadline")
		}
		r.TimeoutMillis = d.Milliseconds()
		return err
	}},
}

// parseProcList reads comma-separated whole numbers, spaces around an
// entry allowed; Canonical range-checks, sorts and deduplicates them.
func parseProcList(r *Request, v string) error {
	r.ProcList = nil
	for _, f := range strings.Split(v, ",") {
		p, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return err
		}
		r.ProcList = append(r.ProcList, p)
	}
	return nil
}

// QueryNames lists the names of the request fields' text forms.
func QueryNames() []string {
	var names []string
	for _, f := range requestFields {
		if f.query != "" {
			names = append(names, f.query)
		}
	}
	return names
}

// Set parses v, the text form of the field whose query name is name,
// into r. Its errors wrap ErrInvalidRequest; Canonical then validates
// the value as it validates a JSON body's.
func (r *Request) Set(name, v string) error {
	i := slices.IndexFunc(requestFields, func(f requestField) bool { return f.parse != nil && f.query == name })
	if i < 0 {
		return invalid("unknown field %q", name)
	}
	if requestFields[i].parse(r, v) != nil {
		return invalid("bad %s %q", name, v)
	}
	return nil
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

// scaleNames are the scales' text forms, indexed by Scale.
var scaleNames = [...]string{DefaultScale: "default", SweepScale: "sweep", PaperScale: "paper"}

// ParseScale resolves a scale name ("" selects sweep, the multi-point
// default).
func ParseScale(name string) (Scale, error) {
	if i := slices.Index(scaleNames[:], cmp.Or(name, "sweep")); i >= 0 {
		return Scale(i), nil
	}
	return 0, invalid("unknown scale %q (want sweep, default or paper)", name)
}

// ScaleName is ParseScale's inverse.
func ScaleName(s Scale) string {
	if s < 0 || int(s) >= len(scaleNames) {
		return "sweep"
	}
	return scaleNames[s]
}

// ErrInvalidRequest marks a request that Canonical rejects. Every front
// end maps it to its usage error: characterize exits 1 and splashd
// answers 400.
var ErrInvalidRequest = errors.New("core: invalid request")

// invalid formats one reason a request is rejected.
func invalid(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrInvalidRequest, fmt.Sprintf(format, args...))
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

// orDefault is cmp.Or for a list field: def when s is empty.
func orDefault[T any](s, def []T) []T {
	if len(s) == 0 {
		return def
	}
	return s
}

// checkLen caps a list field at maxReqListPoints entries.
func checkLen(field string, n int) error {
	if n > maxReqListPoints {
		return invalid("%s has %d points (max %d)", field, n, maxReqListPoints)
	}
	return nil
}

// checkSizes validates a list field of power-of-two byte sizes in [lo, hi].
func checkSizes(field, what string, sizes []int, lo, hi int) error {
	if err := checkLen(field, len(sizes)); err != nil {
		return err
	}
	for _, v := range sizes {
		if !isPow2(v) || v < lo || v > hi {
			return invalid("%s %d not a power of two in [%d, %d]", what, v, lo, hi)
		}
	}
	return nil
}

// Canonical validates the request and fills defaults, returning the
// canonical form: two requests asking for the same experiment normalize
// to identical values, so their Keys collide and splashd coalesces them.
// It is the only request validator — characterize's flags and splashd's
// bodies and queries all pass through it — and its errors wrap
// ErrInvalidRequest. Every field is validated, whether or not the kind
// reads it; the fields it does not read (requestFields) are then zeroed.
// Canonical is idempotent. Apps order is preserved (it orders the result
// rows); ProcList is deduplicated and sorted.
func (r Request) Canonical() (Request, error) {
	if r.Kind == "" {
		return r, invalid("request missing kind (want one of %s)", strings.Join(Kinds(), ", "))
	}
	if !slices.Contains(Kinds(), r.Kind) {
		return r, invalid("unknown kind %q (want one of %s)", r.Kind, strings.Join(Kinds(), ", "))
	}

	for i, name := range r.Apps {
		if _, err := apps.Get(name); err != nil {
			return r, fmt.Errorf("%w: %w", ErrInvalidRequest, err)
		}
		if slices.Contains(r.Apps[:i], name) {
			return r, invalid("duplicate app %q", name)
		}
	}
	r.Apps = slices.Clone(orDefault(r.Apps, Suite))
	if len(r.Opts) > 0 && len(r.Apps) != 1 {
		return r, invalid("opts require a single-app request (got %d apps)", len(r.Apps))
	}
	if len(r.Opts) > maxReqOpts {
		return r, invalid("too many opts (%d > %d)", len(r.Opts), maxReqOpts)
	}

	r.Procs = cmp.Or(r.Procs, 32)
	if r.Procs < 1 || r.Procs > maxReqProcs {
		return r, invalid("procs %d out of range [1, %d]", r.Procs, maxReqProcs)
	}
	r.ProcList = orDefault(r.ProcList, []int{1, 2, 4, 8, 16, 32})
	if err := checkLen("procList", len(r.ProcList)); err != nil {
		return r, err
	}
	for _, p := range r.ProcList {
		if p < 1 || p > maxReqProcs {
			return r, invalid("procList entry %d out of range [1, %d]", p, maxReqProcs)
		}
	}
	r.ProcList = slices.Clone(r.ProcList)
	slices.Sort(r.ProcList)
	r.ProcList = slices.Compact(r.ProcList)

	r.Scale = cmp.Or(r.Scale, "sweep")
	if _, err := ParseScale(r.Scale); err != nil {
		return r, err
	}

	r.CacheSizes = orDefault(r.CacheSizes, DefaultCacheSizes())
	if err := checkSizes("cacheSizes", "cache size", r.CacheSizes, 256, maxReqCacheBytes); err != nil {
		return r, err
	}
	r.CacheSize = cmp.Or(r.CacheSize, 1<<20)
	if err := checkSizes("cacheSize", "cache size", []int{r.CacheSize}, 256, maxReqCacheBytes); err != nil {
		return r, err
	}
	r.Assocs = orDefault(r.Assocs, []int{4})
	if err := checkLen("assocs", len(r.Assocs)); err != nil {
		return r, err
	}
	for _, a := range r.Assocs {
		if a != 0 && (!isPow2(a) || a > 64) {
			return r, invalid("associativity %d not 0 (full) or a power of two ≤ 64", a)
		}
	}
	r.LineSizes = orDefault(r.LineSizes, DefaultLineSizes())
	if err := checkSizes("lineSizes", "line size", r.LineSizes, 8, maxReqLineBytes); err != nil {
		return r, err
	}
	r.SampleRate = cmp.Or(r.SampleRate, 0.01)
	// Written so that NaN, which compares false, is rejected too.
	if !(r.SampleRate > 0 && r.SampleRate <= 1) {
		return r, invalid("sample rate %v out of range (0, 1]", r.SampleRate)
	}
	r.SampleSeed = cmp.Or(r.SampleSeed, 1)
	if r.TimeoutMillis < 0 {
		return r, invalid("negative timeoutMs %d", r.TimeoutMillis)
	}
	r.Opts = canonOpts(r.Opts)
	// Last, a kind keys only on the fields it reads.
	for i, f := range requestFields {
		if f.kinds != nil && !slices.Contains(f.kinds, r.Kind) {
			reflect.ValueOf(&r).Elem().Field(i).SetZero()
		}
	}
	return r, nil
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
	maps.Copy(out, scale.Overrides(app))
	maps.Copy(out, r.Opts)
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

// ETag renders a request key (Request.Key) as a strong HTTP entity tag.
// Because experiments are deterministic and the key folds in the suite
// version, a response's ETag changes exactly when its body could: a
// client revalidating with If-None-Match needs no execution at all to be
// told its copy is current.
func ETag(key runner.Key) string { return `"` + key.String() + `"` }

// Do executes one request as one graph under ctx and returns its
// results: the sections the kind selects, plus the failure manifest of a
// keep-going request that lost experiments (then err wraps ErrFailures,
// as with CollectResults). Progress events for this request alone stream
// to onProgress (nil disables). Do is safe to call from many goroutines
// at once; concurrent requests share the engine's worker pool, memo and
// cache, while each keeps its own failure policy and manifest.
func (e *Engine) Do(ctx context.Context, req Request, onProgress runner.ProgressFunc) (*Results, error) {
	cr, err := req.Canonical()
	if err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if d := cr.Deadline(); d > 0 {
		// A deadline the caller already set that is sooner still holds.
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}
	res, _, err := e.compute(ctx, cr, onProgress)
	return res, err
}
