package core

import (
	"fmt"
	"io"

	"splash2/internal/runner"
)

// Resume: picking up after a crash.
//
// A kill -9 mid-sweep leaves three kinds of debris in a cache directory:
// the dead run's journal (no run.end event), its lease files (their
// locks died with it), and its temp files. Nothing about the
// *results* needs repair — every completed experiment was stored
// atomically before its journal line — so resuming is forensics plus
// cleanup plus an ordinary re-run: the cache supplies everything the
// dead process finished, and only the in-flight remainder executes.

// ResumeReport describes what a resume pass found and reclaimed.
type ResumeReport struct {
	// DeadRuns are the crashed runs adopted by this resume: journals
	// with no run.end that no earlier resume had claimed.
	DeadRuns []runner.RunSummary `json:"deadRuns"`
	// Swept lists the lease and temp files reclaimed.
	Swept []string `json:"swept,omitempty"`
}

// Resume scans cacheDir for crashed runs, marks their journals resumed,
// and sweeps their leases and temp files. A lease a live process holds
// is left alone, so resuming next to a healthy sibling daemon is safe.
// The caller then runs its sweep normally — cache hits are the resume.
func Resume(cacheDir string) (*ResumeReport, error) {
	if cacheDir == "" {
		return nil, fmt.Errorf("core: -resume requires a cache directory")
	}
	cache, err := runner.OpenCache(cacheDir)
	if err != nil {
		return nil, err
	}
	rep := &ResumeReport{}
	for _, s := range runner.ScanJournals(runner.JournalDir(cacheDir)) {
		if s.Ended || s.Resumed {
			continue
		}
		if err := runner.MarkResumed(s.Path, fmt.Sprintf("resume pid %d", s.PID)); err != nil {
			continue // unwritable journal: report it next time too
		}
		rep.DeadRuns = append(rep.DeadRuns, s)
	}
	rep.Swept = cache.SweepCrashed()
	return rep, nil
}

// Render writes the human-readable resume report.
func (r *ResumeReport) Render(w io.Writer) {
	if len(r.DeadRuns) == 0 {
		fmt.Fprintln(w, "resume: no crashed runs found")
	}
	for _, s := range r.DeadRuns {
		fmt.Fprintf(w, "resume: run %s (pid %d) died with %d done, %d failed, %d shared\n",
			s.RunID, s.PID, s.Done, s.Failed, s.Shared)
		for _, label := range s.InFlight {
			fmt.Fprintf(w, "resume:   in flight at death: %s\n", label)
		}
	}
	if n := len(r.Swept); n > 0 {
		fmt.Fprintf(w, "resume: swept %d orphaned lease/temp file(s)\n", n)
	}
}
