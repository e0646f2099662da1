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
	"slices"
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
// job.shared — to its own file under <cacheDir>/journal/<runID>.jsonl.
// The file exists only while its run is live, or after the run died and
// before a resume reports it:
//
//   - It is made at the run's first job event (a warm run journals none
//     and leaves no file), under a temp name, locked with an exclusive
//     flock like a work lease (lease.go), given its run.start line and
//     renamed into place. It appears already locked, so a resume can
//     never take a live run's journal.
//   - A clean Close removes the file while still holding the lock.
//   - The kernel drops the lock when the run dies, however it dies, so
//     a journal whose lock can be taken belongs to a dead run.
//     ReapJournals (`characterize -resume`) reports what each dead run
//     had finished and was executing (the crash forensics) and removes
//     its journal, so each crash is reported once; the resumed run then
//     relies on the cache to supply everything the dead run completed.
//
// Every event is a single write of one line, so a kill -9 can lose at
// most the tail of the final line; readers tolerate exactly that (a
// truncated last line is dropped, anything else is corruption and
// reported).

// JournalEvent is one journal line.
type JournalEvent struct {
	// Time is the event timestamp (UTC).
	Time time.Time `json:"t"`
	// Event is the event type: "run.start", "job.start", "job.done",
	// "job.fail", "job.skip", "job.shared".
	Event string `json:"ev"`
	// Label is the job label for job.* events.
	Label string `json:"label,omitempty"`
	// Key is the job's content address for job.* events.
	Key string `json:"key,omitempty"`
	// Cause is the failure cause for job.fail/job.skip.
	Cause string `json:"cause,omitempty"`
	// FaultOp names the injected fault behind a failure, when one fired.
	FaultOp string `json:"faultOp,omitempty"`
	// PID/Host identify the writing process (run.start).
	PID  int    `json:"pid,omitempty"`
	Host string `json:"host,omitempty"`
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
// first event until a clean Close.
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
// run's first event makes the file and its run.start line, so a run that
// reached its first event leaves a journal for -resume to report whatever
// happens next. The event line itself is a crash injection point, scoped
// to the request that caused the event: dying between a job's completion
// and its journal line is exactly the window the reader's truncated-tail
// tolerance exists for, and an injected fault drops only that line.
func (j *Journal) append(ctx context.Context, ev JournalEvent) {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed || j.f == nil && !j.create() {
		return
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if j.inj.Do(ctx, "journal.append") == nil {
		j.write(ev)
	}
}

// create makes the journal file, with j.mu held: under a temp name,
// locked and holding its run.start line, then renamed into place, so the
// file appears already locked. A resume that swept the temp file before
// it was locked (lock then finds another file or none at its path) only
// costs another attempt. It reports whether the file was made; if not,
// j.f stays nil and the run journals nothing.
func (j *Journal) create() bool {
	for {
		f, err := os.CreateTemp(filepath.Dir(j.path), j.runID+".tmp-*")
		if err != nil {
			return false
		}
		state := lock(f, f.Name())
		if state == leaseWon {
			j.f = f
			host, _ := os.Hostname()
			j.write(JournalEvent{Event: "run.start", PID: os.Getpid(), Host: host})
			if os.Rename(f.Name(), j.path) == nil {
				return true
			}
			j.f, j.appended = nil, 0
		}
		os.Remove(f.Name())
		if f.Close() != nil || state != leaseLost {
			return false
		}
	}
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

// Close ends a clean run: it removes the journal file while still
// holding its lock, then closes it, so only a run that died leaves a
// journal. A journal that was offered no event has no file. Later
// events are dropped. The argument is unused: a clean run's journal is
// removed, so it records no final counters.
func (j *Journal) Close(Counts) error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	if j.f == nil {
		return nil
	}
	return errors.Join(os.Remove(j.path), j.f.Close())
}

// maxJournalLine bounds a single journal line on read; real events are
// hundreds of bytes, so anything near the cap is corruption.
const maxJournalLine = 1 << 20

// ReadJournal parses a journal file. A truncated or unparsable *final*
// line — the only damage a crash can inflict on an append-only JSONL file —
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
			return nil, fmt.Errorf("runner: journal %s: corrupt line %d", path, badLine)
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
		}
	}
	for _, label := range open {
		s.InFlight = append(s.InFlight, label)
	}
	sort.Strings(s.InFlight)
	return s
}

// ReapJournals reports and removes the journals of dead runs in dir, in
// run id order. A journal whose lock it can take belongs to a run that
// died (a clean run removes its own): it is read, summarized and removed,
// so each crash is reported once. A live run holds its journal's lock and
// keeps its file. A journal that does not parse, or that an older version
// ended (run.end) or already reported (run.resumed), is removed without a
// report and returned with the removed paths. A missing directory holds
// no journal.
func ReapJournals(dir string) (dead []RunSummary, removed []string) {
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		path := filepath.Join(dir, e.Name())
		if e.IsDir() || !strings.HasSuffix(path, ".jsonl") {
			continue
		}
		f, err := os.Open(path)
		if err != nil {
			continue
		}
		if lock(f, path) == leaseWon {
			events, err := ReadJournal(path)
			old := slices.ContainsFunc(events, func(ev JournalEvent) bool {
				return ev.Event == "run.end" || ev.Event == "run.resumed"
			})
			switch {
			case os.Remove(path) != nil:
			case err != nil || old:
				removed = append(removed, path)
			default:
				dead = append(dead, Summarize(path, events))
			}
		}
		f.Close()
	}
	return dead, removed
}
