package core

import (
	"fmt"
	"io"

	"splash2/internal/runner"
)

// Resume: picking up after a crash.
//
// A kill -9 mid-sweep leaves three kinds of debris in a cache directory:
// the dead run's journal, its lease files (the locks on both died with
// it), and its temp files. Nothing about the *results* needs repair —
// every completed experiment was stored atomically before its journal
// line — so resuming is forensics plus cleanup plus an ordinary re-run:
// the cache supplies everything the dead process finished, and only the
// in-flight remainder executes.

// ResumeReport describes what a resume pass found and reclaimed.
type ResumeReport struct {
	// DeadRuns are the crashed runs this resume reported: each journal
	// whose lock no live run held, read and then removed.
	DeadRuns []runner.RunSummary `json:"deadRuns"`
	// Swept lists the other files reclaimed: leases and temp files no
	// live process holds, an older version's sidecars, and journals that
	// do not parse or that an older version ended.
	Swept []string `json:"swept,omitempty"`
}

// Resume reports the crashed runs in cacheDir and removes their
// journals, and sweeps their leases and temp files. A journal or lease a
// live process holds is left alone, so resuming next to a healthy
// sibling daemon is safe, and each crash is reported once. The caller
// then runs its sweep normally — cache hits are the resume.
func Resume(cacheDir string) (*ResumeReport, error) {
	if cacheDir == "" {
		return nil, fmt.Errorf("core: -resume requires a cache directory")
	}
	cache, err := runner.OpenCache(cacheDir)
	if err != nil {
		return nil, err
	}
	dead, swept := runner.ReapJournals(runner.JournalDir(cacheDir))
	return &ResumeReport{DeadRuns: dead, Swept: append(swept, cache.SweepCrashed()...)}, nil
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
		fmt.Fprintf(w, "resume: swept %d orphaned file(s)\n", n)
	}
}
