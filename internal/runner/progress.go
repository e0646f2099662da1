package runner

import (
	"fmt"
	"io"
	"sync"
)

// ProgressEvent is one structured scheduling notification: a job
// completing (successfully or not) or the end-of-graph summary. Events
// are the machine-readable form of the Options.Progress lines; splashd
// forwards them to streaming clients as server-sent events.
type ProgressEvent struct {
	// Status is "done", "failed" or "skipped" for per-job events, and
	// "summary" for the end-of-graph report.
	Status string `json:"status"`
	// Label identifies the job ("" on summary events).
	Label string `json:"label,omitempty"`
	// Done and Total count the jobs this graph had to execute (cache and
	// memo hits are excluded; they appear in the summary as Served).
	Done  int `json:"done"`
	Total int `json:"total"`
	// Cause carries the failure text ("failed") or the name of the failed
	// dependency ("skipped").
	Cause string `json:"cause,omitempty"`

	// Summary-only fields: total jobs in the graph (served included),
	// how many executed, how many were served from cache/memo — when the
	// graph resolved, or at run time from another process's lease or a
	// by-product Store handed over — and the failure/skip counts of a
	// keep-going graph.
	Jobs     int `json:"jobs,omitempty"`
	Executed int `json:"executed,omitempty"`
	Served   int `json:"served,omitempty"`
	Failed   int `json:"failed,omitempty"`
	Skipped  int `json:"skipped,omitempty"`
}

// ProgressFunc receives progress events. Calls are serialized (one event
// at a time, in completion order) and made from worker goroutines, so a
// sink must be fast and must not block — buffer or drop instead.
type ProgressFunc func(ProgressEvent)

// textProgress is the sink behind Options.Progress: one line per
// executed job and a per-graph summary line, written to w.
func textProgress(w io.Writer, workers int) ProgressFunc {
	return func(ev ProgressEvent) {
		switch ev.Status {
		case "done":
			fmt.Fprintf(w, "[%d/%d] %s\n", ev.Done, ev.Total, ev.Label)
		case "failed":
			fmt.Fprintf(w, "[%d/%d] FAIL %s: %s\n", ev.Done, ev.Total, ev.Label, ev.Cause)
		case "skipped":
			fmt.Fprintf(w, "[%d/%d] SKIP %s (dependency %s failed)\n", ev.Done, ev.Total, ev.Label, ev.Cause)
		case "summary":
			fmt.Fprintf(w, "runner: %d jobs — %d executed, %d served from cache/memo (workers=%d)",
				ev.Jobs, ev.Executed, ev.Served, workers)
			if ev.Failed > 0 || ev.Skipped > 0 {
				fmt.Fprintf(w, "; %d failed, %d skipped", ev.Failed, ev.Skipped)
			}
			fmt.Fprintln(w)
		}
	}
}

// progress fans one graph's completion notifications out to its sinks.
// Only executed jobs are reported; cache and memo hits appear in the
// summary instead. The mutex serializes the sinks, so subscribers
// observe events in completion order.
type progress struct {
	mu    sync.Mutex
	fns   []ProgressFunc
	total int
	done  int
}

func newProgress(fns []ProgressFunc, total int) *progress {
	return &progress{fns: fns, total: total}
}

// emit dispatches ev to every sink; the caller holds p.mu.
func (p *progress) emit(ev ProgressEvent) {
	for _, fn := range p.fns {
		fn(ev)
	}
}

// job reports one executed job's completion: status is "done", "failed"
// (cause is the failure text without the label prefix) or "skipped"
// (cause is the failed dependency; keep-going mode only).
func (p *progress) job(status, label, cause string) {
	if len(p.fns) == 0 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.done++
	p.emit(ProgressEvent{Status: status, Label: label, Done: p.done, Total: p.total, Cause: cause})
}

// summary emits the per-graph report event: of its jobs, served came
// from the cache or the memo and the rest ran (executed, failed) or were
// skipped.
func (p *progress) summary(jobs, served, executed, failed, skipped int) {
	if len(p.fns) == 0 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.emit(ProgressEvent{
		Status: "summary", Done: p.done, Total: p.total,
		Jobs: jobs, Executed: executed, Served: served, Failed: failed, Skipped: skipped,
	})
}
