package serve

import (
	"sync"
	"time"
)

// endpointStats accumulates per-endpoint request counts and latency.
type endpointStats struct {
	mu sync.Mutex
	m  map[string]*endpointStat
}

type endpointStat struct {
	Count         int64 `json:"count"`
	TotalMicros   int64 `json:"totalMicros"`
	MaxMicros     int64 `json:"maxMicros"`
	ErrorCount    int64 `json:"errors"`   // 4xx
	FailureCount  int64 `json:"failures"` // 5xx
	NotModified   int64 `json:"notModified"`
	DegradedCount int64 `json:"degraded"`
}

func newEndpointStats() *endpointStats {
	return &endpointStats{m: make(map[string]*endpointStat)}
}

// observe records one finished request against its endpoint.
func (s *endpointStats) observe(endpoint string, status int, degraded bool, d time.Duration) {
	us := d.Microseconds()
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.m[endpoint]
	if st == nil {
		st = &endpointStat{}
		s.m[endpoint] = st
	}
	st.Count++
	st.TotalMicros += us
	if us > st.MaxMicros {
		st.MaxMicros = us
	}
	switch {
	case status == 304:
		st.NotModified++
	case status >= 500:
		st.FailureCount++
	case status >= 400:
		st.ErrorCount++
	}
	if degraded {
		st.DegradedCount++
	}
}

// snapshot copies the stats map for JSON rendering.
func (s *endpointStats) snapshot() map[string]endpointStat {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]endpointStat, len(s.m))
	for k, v := range s.m {
		out[k] = *v
	}
	return out
}

// Metrics is the /metrics response: scheduling and cache counters from
// the shared engine, coalescing and admission state, and per-endpoint
// request statistics. All counters are cumulative since boot except the
// Queue block, which is instantaneous.
type Metrics struct {
	// Engine: cumulative scheduling counters (see runner.Counts) plus
	// the number of memoized results held in memory.
	Engine struct {
		Executed    int64   `json:"executed"`
		CacheHits   int64   `json:"cacheHits"`
		MemoHits    int64   `json:"memoHits"`
		Failures    int64   `json:"failures"`
		Skipped     int64   `json:"skipped"`
		HitRatio    float64 `json:"hitRatio"` // (cache+memo) / (cache+memo+executed), of requests that reach the engine
		MemoEntries int     `json:"memoEntries"`
	} `json:"engine"`

	// Lease: cross-process work-lease activity on the shared cache dir
	// (zero unless another process contends for the same experiments).
	Lease struct {
		Acquired int64 `json:"acquired"` // jobs executed under a won lease
		Shared   int64 `json:"shared"`   // jobs adopted from another process's lease
	} `json:"lease"`

	// Journal: the durable run journal under <cache-dir>/journal.
	Journal struct {
		Enabled  bool   `json:"enabled"`
		RunID    string `json:"runId,omitempty"`
		Appended int64  `json:"appended"` // events durably written this run
	} `json:"journal"`

	// Deadlines: request-deadline outcomes.
	Deadlines struct {
		Exceeded int64 `json:"exceeded"` // requests answered 504
	} `json:"deadlines"`

	// Coalescing: flights started vs. requests that joined one, live or
	// finished (by key or by raw form), and what the finished flights and
	// their aliases held for repeats cost.
	Coalescing struct {
		Flights       int64 `json:"flights"`
		Coalesced     int64 `json:"coalesced"`
		Rejected      int64 `json:"rejected"`
		Retained      int   `json:"retained"`      // finished flights held
		RetainedBytes int64 `json:"retainedBytes"` // sum of their bodies
		Aliases       int   `json:"aliases"`       // raw request forms naming a held flight
		AliasBytes    int64 `json:"aliasBytes"`    // their forms plus a fixed overhead each
	} `json:"coalescing"`

	// Queue: instantaneous admission state.
	Queue struct {
		Active    int   `json:"active"`    // flights admitted, not yet done
		Executing int   `json:"executing"` // flights holding an engine slot
		Queued    int   `json:"queued"`    // flights waiting for a slot
		Clients   int   `json:"clients"`   // distinct clients with live requests
		ShedByCap int64 `json:"shedByClientCap"`
		Draining  bool  `json:"draining"`
	} `json:"queue"`

	Endpoints map[string]endpointStat `json:"endpoints"`
}
