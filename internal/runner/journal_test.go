package runner

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"splash2/internal/fault"
)

// TestJournalRoundTrip: a full run's events survive the write/read cycle
// and fold into the expected summary.
func TestJournalRoundTrip(t *testing.T) {
	dir := JournalDir(t.TempDir())
	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if j.RunID() == "" || j.Path() == "" {
		t.Fatal("journal has empty identity")
	}
	j.JobStart(nil, "fft", "aa11")
	j.JobDone(nil, "fft", "aa11")
	j.JobStart(nil, "lu", "bb22")
	j.JobFail(nil, &JobError{Label: "lu", Key: "bb22", Err: errors.New("boom")})
	j.JobStart(nil, "radix", "cc33")
	j.JobShared(nil, "radix", "cc33")
	j.JobStart(nil, "ocean", "ee55") // never finishes: in flight at "crash"
	if err := j.Close(Counts{Executed: 2}); err != nil {
		t.Fatal(err)
	}
	// run.start + 8 = 9 events.
	if n := j.Appended(); n != 9 {
		t.Errorf("Appended() = %d, want 9", n)
	}

	events, err := ReadJournal(j.Path())
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 9 {
		t.Fatalf("read %d events, want 9", len(events))
	}
	s := Summarize(j.Path(), events)
	if s.RunID != j.RunID() {
		t.Errorf("summary RunID = %q, want %q", s.RunID, j.RunID())
	}
	if !s.Ended || s.Resumed {
		t.Errorf("Ended=%v Resumed=%v, want true/false", s.Ended, s.Resumed)
	}
	if s.Done != 1 || s.Failed != 1 || s.Shared != 1 {
		t.Errorf("Done/Failed/Shared = %d/%d/%d, want 1/1/1", s.Done, s.Failed, s.Shared)
	}
	if len(s.InFlight) != 1 || s.InFlight[0] != "ocean" {
		t.Errorf("InFlight = %v, want [ocean]", s.InFlight)
	}
	if s.PID != os.Getpid() {
		t.Errorf("PID = %d, want %d", s.PID, os.Getpid())
	}
}

// TestJournalFailEventDetail: job.fail records the fault op behind an
// injected failure and job.skip keeps its own event type.
func TestJournalFailEventDetail(t *testing.T) {
	dir := JournalDir(t.TempDir())
	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	j.JobFail(nil, &JobError{Label: "fft", Key: "aa",
		Err: &fault.InjectedError{Op: "cache.put:aa"}})
	j.JobFail(nil, &JobError{Label: "lu", Skipped: true, Err: errors.New("dependency fft: boom")})
	j.Close(Counts{})

	events, err := ReadJournal(j.Path())
	if err != nil {
		t.Fatal(err)
	}
	var fails, skips int
	for _, ev := range events {
		switch ev.Event {
		case "job.fail":
			fails++
			if ev.FaultOp != "cache.put:aa" {
				t.Errorf("job.fail FaultOp = %q, want cache.put:aa", ev.FaultOp)
			}
		case "job.skip":
			skips++
		}
	}
	if fails != 1 || skips != 1 {
		t.Errorf("fails=%d skips=%d, want 1/1", fails, skips)
	}
}

// writeJournal writes raw journal bytes for reader tests.
func writeJournal(t *testing.T, lines ...string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "20260101T000000-1-ab.jsonl")
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const (
	startLine = `{"t":"2026-01-01T00:00:00Z","ev":"run.start","pid":1}`
	doneLine  = `{"t":"2026-01-01T00:00:01Z","ev":"job.done","label":"fft","key":"aa"}`
	tornLine  = `{"t":"2026-01-01T00:00:02Z","ev":"job.do` // kill -9 mid-write
)

// TestJournalTornTailTolerated: the only damage a crash can cause — a
// truncated final line — is dropped silently.
func TestJournalTornTailTolerated(t *testing.T) {
	path := writeJournal(t, startLine, doneLine, tornLine)
	events, err := ReadJournal(path)
	if err != nil {
		t.Fatalf("torn tail rejected: %v", err)
	}
	if len(events) != 2 {
		t.Fatalf("read %d events, want 2 (torn tail dropped)", len(events))
	}
	s := Summarize(path, events)
	if s.Ended || s.Done != 1 {
		t.Errorf("summary of crashed run: Ended=%v Done=%d, want false/1", s.Ended, s.Done)
	}
}

// TestJournalMidFileCorruptionRejected: garbage anywhere but the tail is
// real corruption and must be reported with its line number.
func TestJournalMidFileCorruptionRejected(t *testing.T) {
	path := writeJournal(t, startLine, "garbage{{{", doneLine)
	_, err := ReadJournal(path)
	if err == nil || !strings.Contains(err.Error(), "corrupt line 2") {
		t.Fatalf("ReadJournal = %v, want corrupt line 2 error", err)
	}
}

// TestJournalTornTailThenResumed: MarkResumed appends after a torn tail;
// the reader must accept exactly that pairing.
func TestJournalTornTailThenResumed(t *testing.T) {
	path := writeJournal(t, startLine, doneLine, tornLine)
	if err := MarkResumed(path, "test-resume"); err != nil {
		t.Fatal(err)
	}
	events, err := ReadJournal(path)
	if err != nil {
		t.Fatalf("resumed journal rejected: %v", err)
	}
	s := Summarize(path, events)
	if !s.Resumed {
		t.Error("summary does not show the resume")
	}
	if s.Ended {
		t.Error("resume must not fake a clean end")
	}
	last := events[len(events)-1]
	if last.Event != "run.resumed" || last.By != "test-resume" {
		t.Errorf("last event = %+v, want run.resumed by test-resume", last)
	}
}

// TestScanJournals: summaries come back sorted by run id, corrupt files
// are skipped rather than blocking the scan.
func TestScanJournals(t *testing.T) {
	if got := ScanJournals(filepath.Join(t.TempDir(), "missing")); got != nil {
		t.Fatalf("scan of missing dir = %v, want nil", got)
	}

	dir := t.TempDir()
	write := func(name string, lines ...string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(strings.Join(lines, "\n")), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	endLine := `{"t":"2026-01-01T00:01:00Z","ev":"run.end"}`
	write("b-clean.jsonl", startLine, doneLine, endLine)
	write("a-dead.jsonl", startLine, doneLine)
	write("c-corrupt.jsonl", startLine, "garbage{{{", doneLine)
	write("notes.txt", "not a journal")

	out := ScanJournals(dir)
	if len(out) != 2 {
		t.Fatalf("scanned %d journals, want 2 (corrupt skipped): %+v", len(out), out)
	}
	if out[0].RunID != "a-dead" || out[1].RunID != "b-clean" {
		t.Errorf("scan order = %s, %s; want a-dead, b-clean", out[0].RunID, out[1].RunID)
	}
	if out[0].Ended || !out[1].Ended {
		t.Errorf("Ended flags = %v/%v, want false/true", out[0].Ended, out[1].Ended)
	}
}

// TestJournalAppendFaultIsBestEffort: an injected journal.append failure
// loses forensics, never results — and never panics or errors out.
func TestJournalAppendFaultIsBestEffort(t *testing.T) {
	dir := JournalDir(t.TempDir())
	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	rules, err := fault.Parse("error=journal.append")
	if err != nil {
		t.Fatal(err)
	}
	j.SetFault(fault.New(1, rules...))
	before := j.Appended()
	j.JobStart(nil, "fft", "aa")
	j.JobDone(nil, "fft", "aa")
	if got := j.Appended(); got != before {
		t.Errorf("Appended grew to %d despite injected append faults", got)
	}
	j.SetFault(nil)
	if err := j.Close(Counts{}); err != nil {
		t.Fatal(err)
	}
	events, err := ReadJournal(j.Path())
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range events {
		if strings.HasPrefix(ev.Event, "job.") {
			t.Errorf("job event %q survived an injected append fault", ev.Event)
		}
	}
}

// TestJournalNilSafety: every method on a nil *Journal is a no-op.
func TestJournalNilSafety(t *testing.T) {
	var j *Journal
	j.SetFault(nil)
	j.JobStart(nil, "x", "y")
	j.JobDone(nil, "x", "y")
	j.JobFail(nil, &JobError{Label: "x"})
	j.JobShared(nil, "x", "y")
	if j.RunID() != "" || j.Path() != "" || j.Appended() != 0 {
		t.Error("nil journal has identity")
	}
	if err := j.Close(Counts{}); err != nil {
		t.Error(err)
	}
}

// TestJournalFileMadeAtFirstEvent: a journal offered no event makes no
// file, even after Close; the first event makes the file with its
// run.start line, and Close then ends it with run.end.
func TestJournalFileMadeAtFirstEvent(t *testing.T) {
	dir := JournalDir(t.TempDir())
	idle, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := idle.Close(Counts{}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(idle.Path()); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("a journal with no event left a file (stat: %v)", err)
	}

	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	j.JobStart(nil, "fft", "aa")
	if err := j.Close(Counts{}); err != nil {
		t.Fatal(err)
	}
	events, err := ReadJournal(j.Path())
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, ev := range events {
		got = append(got, ev.Event)
	}
	if want := []string{"run.start", "job.start", "run.end"}; strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("events %v, want %v", got, want)
	}
}
