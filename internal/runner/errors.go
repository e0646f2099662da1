package runner

import (
	"errors"
	"fmt"
)

// ErrTimeout marks a job that exceeded Options.Timeout. The job fails at
// once, so a wedged job cannot hang its graph; its abandoned body keeps
// running until it returns (it may never read its context) and holds its
// worker slot until then, so the pool is never oversubscribed.
var ErrTimeout = errors.New("job timed out")

// JobError is the structured failure of one job: instead of crashing or
// aborting the graph, a panicking, failing, timed-out or skipped job is
// converted into one of these. It is the error returned by Job.Result and
// Graph.Wait for failed work, and the record type behind the failure
// manifest.
type JobError struct {
	// Label is the failing job's display label.
	Label string `json:"label"`
	// Key is the job's content address in hex ("" for uncacheable jobs).
	Key string `json:"key,omitempty"`
	// Panicked reports that the job's function panicked; Stack holds the
	// recovered goroutine stack.
	Panicked bool   `json:"panicked,omitempty"`
	Stack    string `json:"stack,omitempty"`
	// TimedOut reports that the job exceeded Options.Timeout.
	TimedOut bool `json:"timedOut,omitempty"`
	// Skipped reports that the job never ran because a dependency failed;
	// Err names the failed dependency.
	Skipped bool `json:"skipped,omitempty"`
	// Err is the underlying cause.
	Err error `json:"-"`
}

// Error formats as "label: cause" (the FAILED-cell text); stacks are kept
// out of the message and available via the Stack field.
func (e *JobError) Error() string {
	if e.Skipped {
		return fmt.Sprintf("%s: skipped: %v", e.Label, e.Err)
	}
	return fmt.Sprintf("%s: %v", e.Label, e.Err)
}

// Unwrap exposes the cause to errors.Is / errors.As.
func (e *JobError) Unwrap() error { return e.Err }

// Cause returns the failure text without the label prefix.
func (e *JobError) Cause() string {
	if e.Err == nil {
		return ""
	}
	return e.Err.Error()
}

// keyStr renders a key for JobError ("" for the zero key).
func keyStr(k Key) string {
	if k.IsZero() {
		return ""
	}
	return k.String()
}
