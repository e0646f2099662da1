package core

import (
	"context"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"

	"splash2/internal/fault"
	"splash2/internal/runner"
)

// resumeTestRequest is a cheap cold request: one program point.
var resumeTestRequest = Request{Kind: KindTable1, Apps: []string{"fft"}, Procs: 1, Scale: "sweep"}

// journalFiles lists what a cache directory's journal directory holds.
func journalFiles(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(runner.JournalDir(dir))
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	return names
}

// TestColdEnginesLeaveNoJournal: 50 engines on one cache directory, each
// run cold, journal their jobs while they are live and remove the
// journal at a clean Close.
func TestColdEnginesLeaveNoJournal(t *testing.T) {
	dir := t.TempDir()
	for i := range 50 {
		keepOnlyTraces(t, dir)
		e, err := NewEngine(EngineOptions{Workers: 2, CacheDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Do(context.Background(), resumeTestRequest, nil); err != nil {
			t.Fatal(err)
		}
		j := e.Journal()
		if _, err := os.Stat(j.Path()); err != nil || j.Appended() < 2 {
			t.Fatalf("engine %d: live journal with %d lines (stat: %v), want run.start and a job event", i, j.Appended(), err)
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		if left := journalFiles(t, dir); len(left) != 0 {
			t.Fatalf("engine %d left journal files %v after a clean Close", i, left)
		}
	}
}

// TestResumeLeavesLiveJournal: a resume next to a live engine neither
// reports its run as dead nor removes its journal; after the engine's
// clean Close there is nothing to report.
func TestResumeLeavesLiveJournal(t *testing.T) {
	dir := t.TempDir()
	e, err := NewEngine(EngineOptions{Workers: 2, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if _, err := e.Do(context.Background(), resumeTestRequest, nil); err != nil {
		t.Fatal(err)
	}
	path := e.Journal().Path()
	rep, err := Resume(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.DeadRuns) != 0 || len(rep.Swept) != 0 {
		t.Errorf("resume next to a live engine: dead %+v, swept %v; want nothing", rep.DeadRuns, rep.Swept)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("resume removed a live run's journal: %v", err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if rep, err = Resume(dir); err != nil || len(rep.DeadRuns) != 0 || len(rep.Swept) != 0 {
		t.Errorf("resume after a clean Close: %+v (err %v), want nothing", rep, err)
	}
}

const journalHelperEnv = "SPLASH2_JOURNAL_HELPER"

// TestJournalHolderHelper is not a test: it is the child process of
// TestResumeReportsKilledRunOnce. It dies by SIGKILL at its run's first
// journal append, after the journal file is made.
func TestJournalHolderHelper(t *testing.T) {
	dir := os.Getenv(journalHelperEnv)
	if dir == "" {
		t.Skip("journal holder helper: only runs re-executed")
	}
	rules, err := fault.Parse("crash@1=journal.append")
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(EngineOptions{Workers: 2, CacheDir: dir, Fault: fault.New(1, rules...)})
	if err != nil {
		t.Fatal(err)
	}
	e.Do(context.Background(), resumeTestRequest, nil)
	t.Fatal("the armed crash did not fire")
}

// TestResumeReportsKilledRunOnce: the journal of a run killed by
// SIGKILL is reported by the next resume, with the dead process's pid,
// and removed, so a second resume reports nothing.
func TestResumeReportsKilledRunOnce(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Skip("no executable path:", err)
	}
	dir := t.TempDir()
	cmd := exec.Command(exe, "-test.run=^TestJournalHolderHelper$")
	cmd.Env = append(os.Environ(), journalHelperEnv+"="+dir)
	out, err := cmd.CombinedOutput()
	if !strings.Contains(string(out), "fault: injected crash at journal.append") {
		t.Fatalf("helper did not die at the crash point (err %v): %s", err, out)
	}
	if left := journalFiles(t, dir); len(left) != 1 {
		t.Fatalf("the killed run left journal files %v, want its one journal", left)
	}
	rep, err := Resume(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.DeadRuns) != 1 || rep.DeadRuns[0].PID != cmd.Process.Pid {
		t.Fatalf("dead runs %+v, want the killed pid %d", rep.DeadRuns, cmd.Process.Pid)
	}
	if left := journalFiles(t, dir); len(left) != 0 {
		t.Errorf("journal files %v after the resume reported them", left)
	}
	if rep, err = Resume(dir); err != nil || len(rep.DeadRuns) != 0 {
		t.Errorf("second resume: %+v (err %v), want no dead run", rep, err)
	}
}
