package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer's public
// functions. Parent is the id of the span that caused it (0 for the root
// of an iteration or request); every span of one iteration carries the
// root's id in Iter. A layer's self time is its span's duration minus the
// part of that interval its child spans cover.
type span struct {
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	Parent   int    `json:"parent"`
	ID       int    `json:"id"`
	Iter     int    `json:"iter"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the end-to-end runs stay free of tracing cost.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id for end and for children.
func (t *tracer) begin(workload, name string, parent int) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	iter := id
	if parent != 0 {
		iter = t.spans[parent-1].Iter
	}
	t.spans = append(t.spans, span{Name: name, Workload: workload, Start: now, Parent: parent, ID: id, Iter: iter})
	return id
}

// end closes a span and returns its duration in seconds.
func (t *tracer) end(id int) float64 {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	return float64(now-t.spans[id-1].Start) / 1e9
}

// seconds returns the durations of every finished span of one workload
// with the given name, in recording order.
func (t *tracer) seconds(workload, name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Workload == workload && s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e9)
		}
	}
	return out
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
