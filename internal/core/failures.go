package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"

	"splash2/internal/runner"
)

// ErrFailures marks a keep-going characterization that completed but
// lost experiments: the tables and figures were produced with FAILED
// placeholders, and the failure manifest says what is missing. Callers
// (cmd/characterize) detect it with errors.Is to exit with the
// completed-with-failures status instead of a hard error.
var ErrFailures = errors.New("characterization completed with failures")

// FailureRecord is one lost experiment in the failure manifest.
type FailureRecord struct {
	// Label is the experiment's job label (e.g. "run fft p=4 ...").
	Label string `json:"label"`
	// Key is the experiment's content address ("" for uncacheable jobs).
	Key string `json:"key,omitempty"`
	// Attempts is how many times the job ran before giving up.
	Attempts int `json:"attempts,omitempty"`
	// Panicked, TimedOut and Skipped classify the failure; Skipped means
	// the experiment never ran because a dependency failed.
	Panicked bool `json:"panicked,omitempty"`
	TimedOut bool `json:"timedOut,omitempty"`
	Skipped  bool `json:"skipped,omitempty"`
	// Cause is the failure text (without the label prefix).
	Cause string `json:"cause"`
}

// FailureManifest is the end-of-run JSON account of every lost
// experiment in a keep-going characterization.
type FailureManifest struct {
	Count    int             `json:"count"`
	Failures []FailureRecord `json:"failures"`
}

// NewFailureManifest converts the scheduler's failure log into a
// manifest: one record per distinct job label (a job resubmitted by a
// later section appears once), sorted by label for stable output.
func NewFailureManifest(fails []*runner.JobError) FailureManifest {
	seen := map[string]bool{}
	var recs []FailureRecord
	for _, je := range fails {
		if seen[je.Label] {
			continue
		}
		seen[je.Label] = true
		recs = append(recs, FailureRecord{
			Label:    je.Label,
			Key:      je.Key,
			Attempts: je.Attempts,
			Panicked: je.Panicked,
			TimedOut: je.TimedOut,
			Skipped:  je.Skipped,
			Cause:    je.Cause(),
		})
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].Label < recs[j].Label })
	return FailureManifest{Count: len(recs), Failures: recs}
}

// lost returns the failure manifest of a keep-going engine that lost
// experiments, and nil otherwise.
func (e *Engine) lost() *FailureManifest {
	if !e.keepGoing {
		return nil
	}
	fails := e.Failures()
	if len(fails) == 0 {
		return nil
	}
	m := NewFailureManifest(fails)
	return &m
}

// err is the ErrFailures-wrapped error of a run that lost experiments.
func (m FailureManifest) err() error {
	return fmt.Errorf("core: %d experiment(s) lost: %w", m.Count, ErrFailures)
}

// WriteJSON emits the manifest as indented JSON.
func (m FailureManifest) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}

// failedCell renders a failed experiment's table cell. JobError messages
// are "label: cause", giving the FAILED(label: cause) placeholder format.
func failedCell(err error) string {
	return fmt.Sprintf("FAILED(%v)", err)
}

// degrade resolves a job under the engine's failure policy. Fail-fast
// engines surface the error; keep-going engines convert it into a
// FAILED(...) placeholder so the section renders a partial table and the
// run continues.
func degrade[T any](e *Engine, j runner.Job[T]) (v T, failed string, err error) {
	v, err = j.Result()
	if err == nil {
		return v, "", nil
	}
	var zero T
	if e.keepGoing {
		return zero, failedCell(err), nil
	}
	return zero, "", err
}
