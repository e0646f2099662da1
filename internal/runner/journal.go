package runner

import (
	"bufio"
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"splash2/internal/fault"
)

// Durable run journal.
//
// The cache makes finished results survive a crash; the journal makes
// the *run* itself legible after one. Each engine run appends JSONL
// events — run.start, job.start, job.done, job.fail, job.skip,
// job.shared, run.end — to its own file under
// <cacheDir>/journal/<runID>.jsonl. The file is made, with its run.start
// line, at the run's first job event: a run that journals none
// (a warm one) leaves no file. Every event is a single O_APPEND
// write of one line, which POSIX makes atomic for these sizes, so a
// kill -9 can lose at most the tail of the final line; readers tolerate
// exactly that (a truncated last line is dropped, anything else is
// corruption and reported).
//
// A journal whose file lacks a run.end event belongs to a run that died.
// `characterize -resume` scans the journal directory, reports what each
// dead run had finished and was executing (the crash forensics), marks
// the dead journals resumed (append-only — a run.resumed event, never a
// rewrite), sweeps the dead runs' leases and temp artifacts, and then
// relies on the cache to supply everything the dead run completed.

// JournalEvent is one journal line.
type JournalEvent struct {
	// Time is the event timestamp (UTC).
	Time time.Time `json:"t"`
	// Event is the event type: "run.start", "job.start", "job.done",
	// "job.fail", "job.skip", "job.shared", "run.resumed", "run.end".
	Event string `json:"ev"`
	// Label is the job label for job.* events.
	Label string `json:"label,omitempty"`
	// Key is the job's content address for job.* events.
	Key string `json:"key,omitempty"`
	// Cause is the failure cause for job.fail/job.skip.
	Cause string `json:"cause,omitempty"`
	// FaultOp names the injected fault behind a failure, when one fired.
	FaultOp string `json:"faultOp,omitempty"`
	// PID/Host identify the writing process (run.start, run.resumed).
	PID  int    `json:"pid,omitempty"`
	Host string `json:"host,omitempty"`
	// By identifies who resumed a dead run (run.resumed).
	By string `json:"by,omitempty"`
	// Counts carries the final scheduler counters (run.end).
	Counts *Counts `json:"counts,omitempty"`
}

// Journal is an append-only event log for one engine run. All methods
// are safe for concurrent use and safe on a nil receiver (no-ops), so
// journal hooks cost one nil check when journaling is disabled.
type Journal struct {
	mu       sync.Mutex
	f        *os.File // nil until the first event
	path     string
	runID    string
	inj      *fault.Injector
	appended int64
	offered  bool // an event was offered: Close then ends the file with run.end
	closed   bool
}

// journalDirName is the journal subdirectory under a cache directory.
const journalDirName = "journal"

// JournalDir returns the journal directory for a cache directory.
func JournalDir(cacheDir string) string {
	return filepath.Join(cacheDir, journalDirName)
}

// OpenJournal names a new run journal in dir, which it creates; the file
// itself is made at the first event. The run id embeds the
// start time, pid and a nonce, so concurrent runs sharing the directory
// never collide.
func OpenJournal(dir string) (*Journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("runner: journal dir: %w", err)
	}
	var nb [4]byte
	rand.Read(nb[:])
	runID := fmt.Sprintf("%s-%d-%s",
		time.Now().UTC().Format("20060102T150405"), os.Getpid(), hex.EncodeToString(nb[:]))
	return &Journal{path: filepath.Join(dir, runID+".jsonl"), runID: runID}, nil
}

// write appends one event line; the caller holds j.mu.
func (j *Journal) write(ev JournalEvent) {
	ev.Time = time.Now().UTC()
	if data, err := json.Marshal(ev); err == nil {
		if _, err := j.f.Write(append(data, '\n')); err == nil {
			j.appended++
		}
	}
}

// SetFault attaches a fault injector to the journal's append path
// (operation "journal.append"). Setup-time only, like Cache.SetFault.
func (j *Journal) SetFault(inj *fault.Injector) {
	if j != nil {
		j.inj = inj
	}
}

// RunID returns the journal's run identifier.
func (j *Journal) RunID() string {
	if j == nil {
		return ""
	}
	return j.runID
}

// Path returns the journal file path; the file exists from the run's
// first event on.
func (j *Journal) Path() string {
	if j == nil {
		return ""
	}
	return j.path
}

// Appended returns how many events have been durably appended.
func (j *Journal) Appended() int64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.appended
}

// append writes one event as a single JSONL line. Best-effort: a failed
// append (full disk, injected fault) loses forensics, never results. The
// context scopes the injection point to the request that caused the
// event; run.end passes nil.
func (j *Journal) append(ctx context.Context, ev JournalEvent) {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.closed {
		j.offered = true
		j.appendLocked(ctx, ev)
	}
}

// appendLocked is append with j.mu held. The append is a crash
// injection point: dying between a job's completion and its journal line
// is exactly the window the reader's truncated-tail tolerance exists
// for. The first event to pass it makes the file and its run.start line.
func (j *Journal) appendLocked(ctx context.Context, ev JournalEvent) {
	if ctx == nil {
		ctx = context.Background()
	}
	if j.inj.Do(ctx, "journal.append") != nil {
		return
	}
	if j.f == nil {
		f, err := os.OpenFile(j.path, os.O_WRONLY|os.O_CREATE|os.O_EXCL|os.O_APPEND, 0o644)
		if err != nil {
			return
		}
		j.f = f
		host, _ := os.Hostname()
		j.write(JournalEvent{Event: "run.start", PID: os.Getpid(), Host: host})
	}
	j.write(ev)
}

// JobStart records that a job began executing.
func (j *Journal) JobStart(ctx context.Context, label, key string) {
	j.append(ctx, JournalEvent{Event: "job.start", Label: label, Key: key})
}

// JobDone records a job that completed successfully.
func (j *Journal) JobDone(ctx context.Context, label, key string) {
	j.append(ctx, JournalEvent{Event: "job.done", Label: label, Key: key})
}

// JobFail records a job that failed or was skipped. When the cause was
// an injected fault the fault operation is recorded too.
func (j *Journal) JobFail(ctx context.Context, je *JobError) {
	if j == nil || je == nil {
		return
	}
	ev := JournalEvent{Event: "job.fail", Label: je.Label, Key: je.Key, Cause: je.Cause()}
	if je.Skipped {
		ev.Event = "job.skip"
	}
	var inj *fault.InjectedError
	if errors.As(je.Err, &inj) {
		ev.FaultOp = inj.Op
	}
	j.append(ctx, ev)
}

// JobShared records a job whose result was obtained by waiting on
// another process's lease instead of executing locally.
func (j *Journal) JobShared(ctx context.Context, label, key string) {
	j.append(ctx, JournalEvent{Event: "job.shared", Label: label, Key: key})
}

// Close appends the run.end event (with final counters) and closes the
// file. A journal without run.end is, by definition, a crashed run; one
// that was offered no event has no file and gets none.
func (j *Journal) Close(counts Counts) error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	if j.offered {
		j.appendLocked(nil, JournalEvent{Event: "run.end", Counts: &counts})
	}
	if j.f == nil {
		return nil
	}
	return j.f.Close()
}

// maxJournalLine bounds a single journal line on read; real events are
// hundreds of bytes, so anything near the cap is corruption.
const maxJournalLine = 1 << 20

// ReadJournal parses a journal file. A truncated or unparsable *final*
// line — the only damage a crash can inflict on an O_APPEND JSONL file —
// is silently dropped; damage anywhere else is returned as an error with
// the offending line number.
func ReadJournal(path string) ([]JournalEvent, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var events []JournalEvent
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64*1024), maxJournalLine)
	lineNo := 0
	var badLine int // 1-based index of first unparsable line, 0 if none
	for sc.Scan() {
		lineNo++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var ev JournalEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			if badLine == 0 {
				badLine = lineNo
			}
			continue
		}
		if badLine != 0 {
			// A resume appends run.resumed right after a crash's torn
			// tail; that pairing is the expected shape of a resumed
			// journal. A bad line followed by anything else is damage.
			if ev.Event != "run.resumed" {
				return nil, fmt.Errorf("runner: journal %s: corrupt line %d", path, badLine)
			}
			badLine = 0
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("runner: journal %s: %w", path, err)
	}
	// badLine set and we got here: the bad line was the last one — the
	// torn tail of a crash. Tolerated.
	return events, nil
}

// RunSummary condenses one journal for resume forensics.
type RunSummary struct {
	// RunID and Path identify the journal.
	RunID string `json:"runId"`
	Path  string `json:"path"`
	// PID and Host identify the process that wrote it.
	PID  int    `json:"pid"`
	Host string `json:"host"`
	// Started is the run.start timestamp.
	Started time.Time `json:"started"`
	// Ended reports whether a run.end event exists (clean shutdown).
	Ended bool `json:"ended"`
	// Resumed reports whether a later run already adopted this journal.
	Resumed bool `json:"resumed"`
	// Done, Failed, Shared count the journal's job outcomes; InFlight
	// lists jobs started but never finished — what the process was
	// executing when it died.
	Done     int      `json:"done"`
	Failed   int      `json:"failed"`
	Shared   int      `json:"shared"`
	InFlight []string `json:"inFlight,omitempty"`
}

// Summarize folds a journal's events into a RunSummary.
func Summarize(path string, events []JournalEvent) RunSummary {
	s := RunSummary{Path: path}
	s.RunID = strings.TrimSuffix(filepath.Base(path), ".jsonl")
	open := map[string]string{} // key -> label, started but not finished
	for _, ev := range events {
		switch ev.Event {
		case "run.start":
			s.PID, s.Host, s.Started = ev.PID, ev.Host, ev.Time
		case "job.start":
			open[ev.Key] = ev.Label
		case "job.done":
			s.Done++
			delete(open, ev.Key)
		case "job.fail", "job.skip":
			s.Failed++
			delete(open, ev.Key)
		case "job.shared":
			s.Shared++
			delete(open, ev.Key)
		case "run.resumed":
			s.Resumed = true
		case "run.end":
			s.Ended = true
		}
	}
	for _, label := range open {
		s.InFlight = append(s.InFlight, label)
	}
	sort.Strings(s.InFlight)
	return s
}

// ScanJournals summarizes every journal in dir, oldest first. A missing
// directory is an empty scan, not an error; unreadable or corrupt
// journals are skipped (a resume must never be blocked by the very
// damage it exists to clean up).
func ScanJournals(dir string) []RunSummary {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var out []RunSummary
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".jsonl") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		events, err := ReadJournal(path)
		if err != nil {
			continue
		}
		out = append(out, Summarize(path, events))
	}
	sort.Slice(out, func(i, k int) bool { return out[i].RunID < out[k].RunID })
	return out
}

// MarkResumed appends a run.resumed event to a dead run's journal, so
// repeated resumes report each crash once. Append-only, honouring the
// journal discipline: the dead run's history is never rewritten.
func MarkResumed(path, by string) error {
	host, _ := os.Hostname()
	ev := JournalEvent{Time: time.Now().UTC(), Event: "run.resumed", By: by, PID: os.Getpid(), Host: host}
	data, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	// The dead journal may end in a torn line with no newline; lead with
	// one so this event always starts a fresh line. Readers skip blanks.
	_, err = f.Write(append([]byte{'\n'}, append(data, '\n')...))
	// A failed close can swallow the flush of the resumed marker, and a
	// lost marker makes every later resume re-report this crash.
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
