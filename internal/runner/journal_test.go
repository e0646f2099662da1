package runner

import (
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"splash2/internal/fault"
)

// TestJournalRoundTrip: a run's events survive the write/read cycle and
// fold into the expected summary, and a clean Close removes the file.
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
	// run.start + 7 = 8 events.
	if n := j.Appended(); n != 8 {
		t.Errorf("Appended() = %d, want 8", n)
	}

	events, err := ReadJournal(j.Path())
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 8 {
		t.Fatalf("read %d events, want 8", len(events))
	}
	if err := j.Close(Counts{Executed: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(j.Path()); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("a clean Close left the journal (stat: %v)", err)
	}
	s := Summarize(j.Path(), events)
	if s.RunID != j.RunID() {
		t.Errorf("summary RunID = %q, want %q", s.RunID, j.RunID())
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
	defer j.Close(Counts{})

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
	if s := Summarize(path, events); s.Done != 1 || s.PID != 1 {
		t.Errorf("summary of crashed run: Done=%d PID=%d, want 1/1", s.Done, s.PID)
	}
}

// TestJournalMidFileCorruptionRejected: garbage anywhere but the tail is
// real corruption and must be reported with its line number, a torn
// line followed by an older version's run.resumed marker included.
func TestJournalMidFileCorruptionRejected(t *testing.T) {
	resumedLine := `{"t":"2026-01-01T00:01:00Z","ev":"run.resumed"}`
	for _, lines := range [][]string{
		{startLine, "garbage{{{", doneLine},
		{startLine, tornLine, resumedLine},
	} {
		_, err := ReadJournal(writeJournal(t, lines...))
		if err == nil || !strings.Contains(err.Error(), "corrupt line 2") {
			t.Errorf("ReadJournal = %v, want corrupt line 2 error", err)
		}
	}
}

// TestReapJournals: a resume reports each dead run's journal once, in
// run id order, and removes it; it removes unreported a journal that
// does not parse and one an older version ended or already reported;
// it leaves a live run's journal and files that are not journals.
func TestReapJournals(t *testing.T) {
	if dead, removed := ReapJournals(filepath.Join(t.TempDir(), "missing")); dead != nil || removed != nil {
		t.Fatalf("reap of missing dir = %v %v, want nothing", dead, removed)
	}

	dir := t.TempDir()
	write := func(name string, lines ...string) string {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	b := write("b-dead.jsonl", startLine, doneLine, tornLine)
	a := write("a-dead.jsonl", startLine)
	var old []string
	for name, last := range map[string]string{
		"c-corrupt.jsonl": "garbage{{{\n" + doneLine,
		"d-ended.jsonl":   `{"t":"2026-01-01T00:01:00Z","ev":"run.end"}`,
		"e-resumed.jsonl": `{"t":"2026-01-01T00:01:00Z","ev":"run.resumed"}`,
	} {
		old = append(old, write(name, startLine, doneLine, last))
	}
	notes := write("notes.txt", "not a journal")
	live, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close(Counts{})
	live.JobStart(nil, "fft", "aa")

	dead, removed := ReapJournals(dir)
	if len(dead) != 2 || dead[0].Path != a || dead[1].Path != b {
		t.Fatalf("dead runs %+v, want a-dead then b-dead", dead)
	}
	if dead[1].RunID != "b-dead" || dead[1].Done != 1 {
		t.Errorf("b-dead summary %+v, want its one job done", dead[1])
	}
	slices.Sort(old)
	if !slices.Equal(removed, old) {
		t.Errorf("removed unreported %v, want %v", removed, old)
	}
	for _, p := range append(old, a, b) {
		if _, err := os.Stat(p); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("%s survived the reap (stat: %v)", filepath.Base(p), err)
		}
	}
	for _, p := range []string{live.Path(), notes} {
		if _, err := os.Stat(p); err != nil {
			t.Errorf("the reap removed %s: %v", filepath.Base(p), err)
		}
	}
	if dead, removed := ReapJournals(dir); len(dead) != 0 || len(removed) != 0 {
		t.Errorf("a second reap found %v %v, want nothing", dead, removed)
	}
}

// TestJournalAppendFaultIsBestEffort: an injected journal.append failure
// loses forensics, never results — and never panics or errors out. The
// run's first event still makes the file and its run.start line; only
// the event lines are dropped.
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
	if got := j.Appended(); got != before+1 {
		t.Errorf("Appended = %d after injected append faults, want %d (run.start only)", got, before+1)
	}
	j.SetFault(nil)
	defer j.Close(Counts{})
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
// run.start line, and a clean Close removes it and drops later events.
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
	events, err := ReadJournal(j.Path())
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, ev := range events {
		got = append(got, ev.Event)
	}
	if want := []string{"run.start", "job.start"}; strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("events %v, want %v", got, want)
	}
	if err := j.Close(Counts{}); err != nil {
		t.Fatal(err)
	}
	j.JobDone(nil, "fft", "aa")
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != 0 {
		t.Errorf("journal dir after a clean Close and a late event: %v (err %v), want empty", ents, err)
	}
}

// TestJournalBirthRacesReap: journals born, written and closed while a
// resume reaps their directory and sweeps the cache in a loop are never
// reported or removed while their run is live. Each file appears locked
// (its temp name is locked before the rename), so the reaper can take no
// live journal's lock, and a temp swept before its lock is made again.
func TestJournalBirthRacesReap(t *testing.T) {
	root := t.TempDir()
	c, err := OpenCache(root)
	if err != nil {
		t.Fatal(err)
	}
	dir := JournalDir(root)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	reaped := make(chan []string, 1)
	go func() {
		var got []string
		for {
			select {
			case <-stop:
				reaped <- got
				return
			default:
			}
			dead, removed := ReapJournals(dir)
			for _, s := range dead {
				got = append(got, s.Path)
			}
			got = append(got, removed...)
			for _, p := range c.SweepCrashed() {
				if strings.HasSuffix(p, ".jsonl") {
					got = append(got, p)
				}
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				j, err := OpenJournal(dir)
				if err != nil {
					t.Error(err)
					return
				}
				j.JobStart(nil, "fft", "aa")
				j.JobDone(nil, "fft", "aa")
				if events, err := ReadJournal(j.Path()); err != nil || len(events) != 3 {
					t.Errorf("live journal read %d events (err %v), want 3", len(events), err)
				}
				if err := j.Close(Counts{}); err != nil {
					t.Errorf("clean Close: %v", err)
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	if got := <-reaped; len(got) != 0 {
		t.Errorf("the reaper took live journals: %v", got)
	}
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != 0 {
		t.Errorf("journal dir after every clean Close: %v (err %v), want empty", ents, err)
	}
}
