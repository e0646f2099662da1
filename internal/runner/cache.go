package runner

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"time"

	"splash2/internal/fault"
)

// Cache is the content-addressed on-disk result store. Each entry lives
// at <dir>/<key[:2]>/<key[2:]>.json (the name predates the format) and
// holds a fixed header and the value:
//
//	magic "SP2RES01" | SHA-256 of the value (32 bytes) | value
//
// The value is the job result in the runner's binary form (codec.go),
// which starts with a fingerprint of the result type's shape. Get checks
// the magic and the checksum, then decodes: a truncated, corrupted or
// foreign file is a miss, and the entry is removed and the experiment
// recomputed. An entry written in an older format — the JSON envelope
// of earlier versions included — fails the magic check the same way, so
// a cache directory migrates in place: the run that reads an old entry
// rewrites it at the same path.
//
// A value stored whole for a graph (Keep, read back by Lookup before the
// graph is built) is one more entry of this form.
//
// A recording is a file entry of the same form at <dir>/traces/<key>.sp2t
// (files.go), its v2 container the payload, which the runner probes,
// leases and serves like any entry and closes in Runner.Close.
//
// Writes go through a temporary file in <dir>/tmp and a rename on the
// same filesystem (WriteEntry), so concurrent runs sharing a cache
// directory never observe partial entries. Opening
// a cache lists tmp/ alone and removes what a crashed run left there
// over an hour ago; it reads no shard, journal or trace directory. Only
// an explicit resume (SweepCrashed) walks the tree: it removes the lease
// and temp files no live process holds, the temp files an older version
// wrote beside the entries and its recordings' sidecars.
//
// # Concurrency
//
// A Cache is safe for concurrent use by any number of readers and
// writers, in one process or many (splashd serves every request from one
// shared cache directory). The contract, relied on by the serve layer
// and pinned by TestCacheConcurrentAccess:
//
//   - Get/Get: reads share no mutable state; each opens and reads the
//     entry file independently.
//   - Get/Put on the same key: Put is atomic (temp file + rename), so a
//     concurrent Get observes either the complete old entry, the complete
//     new entry, or — transiently, never wrongly — a miss. It can never
//     observe a torn entry: the checksum in the header downgrades any
//     partial read to a miss.
//   - Get/Get on a damaged entry: both readers detect the bad checksum,
//     both may Remove the file; unlinking a file another reader holds
//     open is safe on POSIX, and a failed Remove is ignored.
//   - Put/Put on the same key: last rename wins. Both writers hold the
//     same value bytes for a content-addressed key, so the outcome is
//     identical either way.
//
// Cached values decoded by Get are handed to multiple graphs by the
// runner's memo; consumers must treat them as immutable.
//
// SetFault and EnableLeases are the exceptions: they must be called
// before the cache is shared (test/CLI setup, not runtime controls).
type Cache struct {
	dir string
	tmp string // <dir>/tmp: every temporary file, renamed into place
	inj *fault.Injector
	ls  *leases
}

// DefaultDir returns the default cache location, <user cache dir>/splash2
// (e.g. ~/.cache/splash2 on Linux).
func DefaultDir() (string, error) {
	base, err := os.UserCacheDir()
	if err != nil {
		return "", fmt.Errorf("runner: no user cache dir: %w", err)
	}
	return filepath.Join(base, "splash2"), nil
}

// OpenCache opens (creating if needed) a cache rooted at dir. An empty
// dir selects DefaultDir.
func OpenCache(dir string) (*Cache, error) {
	if dir == "" {
		d, err := DefaultDir()
		if err != nil {
			return nil, err
		}
		dir = d
	}
	tmp := filepath.Join(dir, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, fmt.Errorf("runner: cache dir: %w", err)
	}
	sweepTmp(tmp, staleTmpAge)
	return &Cache{dir: dir, tmp: tmp}, nil
}

// Dir returns the cache root directory.
func (c *Cache) Dir() string { return c.dir }

// SetFault attaches a fault injector to the cache's I/O paths: reads
// evaluate "cache.get:<key>" (errors and short reads), writes evaluate
// "cache.put:<key>", lease acquisitions evaluate "lease.acquire:<key>".
// nil detaches.
func (c *Cache) SetFault(inj *fault.Injector) {
	c.inj = inj
	if c.ls != nil {
		c.ls.inj = inj
	}
}

// EnableLeases turns on cross-process work leases (see lease.go). The
// argument is unused: a lease is a kernel lock that lasts as long as its
// holder, so it has no expiry to configure. Like SetFault it is
// setup-time configuration.
func (c *Cache) EnableLeases(time.Duration) {
	c.ls = &leases{dir: c.dir, inj: c.inj}
}

// leaseManager returns the lease manager, or nil when leases are
// disabled (or the cache itself is nil).
func (c *Cache) leaseManager() *leases {
	if c == nil {
		return nil
	}
	return c.ls
}

// staleTmpAge is how old an orphaned temporary file must be before the
// open-time sweep deletes it. The margin keeps the sweep from racing a
// concurrent run's in-flight write, whose temp file lives seconds at most.
const staleTmpAge = time.Hour

// sweepTmp removes the temp files (isTemp) under dir older than age.
// OpenCache sweeps tmp/ alone with staleTmpAge, so it never races a
// concurrent run's in-flight write. Best-effort: sweep errors are
// ignored.
func sweepTmp(dir string, age time.Duration) {
	now := time.Now()
	filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !isTemp(d.Name()) {
			return nil
		}
		if info, err := d.Info(); err == nil && now.Sub(info.ModTime()) > age {
			os.Remove(path)
		}
		return nil
	})
}

// isTemp reports a temp file's name: an entry temp (".tmp-*", of cache
// entries and trace containers alike; older versions also left
// "<key>.tmp*"), a journal's before its rename ("<runID>.tmp-*"), or the
// ".reap-*" file of an older version's lease takeover. Real artifacts
// (.json entries, .sp2t containers, .lease files, journal .jsonl) never
// match.
func isTemp(name string) bool {
	return strings.Contains(name, ".tmp") || strings.Contains(name, ".reap-")
}

// SweepCrashed reclaims artifacts orphaned by dead runs, for an explicit
// resume, in one walk of the cache: every lease and temp file whose lock
// it can take, regardless of age, and the inert .sp2t.json sidecars an
// older version wrote beside its recordings. A live holder, on this host
// or another, keeps its lock and so its file: a lease, or a journal in
// the making (journal.go). Returns the removed paths for the resume
// report.
func (c *Cache) SweepCrashed() (removed []string) {
	filepath.WalkDir(c.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		name := d.Name()
		if (strings.HasSuffix(name, ".lease") || isTemp(name) || strings.HasSuffix(name, ".sp2t.json")) &&
			removeUnlocked(path) {
			removed = append(removed, path)
		}
		return nil
	})
	return removed
}

// entryMagic opens every entry file — a cache entry or an engine's trace
// container — and the SHA-256 of the payload follows it.
const entryMagic = "SP2RES01"

const entryHeader = len(entryMagic) + sha256.Size

// ErrNotEntry is OpenEntry's error for a file without the entry magic
// (foreign, or of an older format); a damaged entry is another error.
var ErrNotEntry = errors.New("not an entry")

// checkMagic reports a header that does not start with the entry magic.
func checkMagic(header []byte) error {
	if magic := header[:len(entryMagic)]; string(magic) != entryMagic {
		return fmt.Errorf("%w: magic %q, want %q", ErrNotEntry, magic, entryMagic)
	}
	return nil
}

// checkEntry is the one integrity check of an entry file: header holds
// the file's first entryHeader bytes and sum the SHA-256 of the payload
// after them. The error says what failed.
func checkEntry(header []byte, sum [sha256.Size]byte) error {
	if err := checkMagic(header); err != nil {
		return err
	}
	if want := [sha256.Size]byte(header[len(entryMagic):entryHeader]); sum != want {
		return fmt.Errorf("entry checksum mismatch: payload sha256 %x, header records %x", sum, want)
	}
	return nil
}

// WriteEntry stores the payload write streams as an entry file at path:
// the magic, the payload's SHA-256 and the payload. It writes through a
// temporary file in tmpDir, which must be on path's filesystem, and
// renames it into place only when every write and the close succeeded,
// so no reader ever sees a torn entry.
func WriteEntry(tmpDir, path string, write func(io.Writer) error) error {
	f, err := os.CreateTemp(tmpDir, ".tmp-*")
	if err != nil {
		return err
	}
	err = writeEntry(f, write)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name())
	}
	return err
}

// writeEntry writes the header with a zero checksum, streams the payload
// through the hash and then fills the checksum in.
func writeEntry(f *os.File, write func(io.Writer) error) error {
	var header [entryHeader]byte
	copy(header[:], entryMagic)
	if _, err := f.Write(header[:]); err != nil {
		return err
	}
	h := sha256.New()
	if err := write(io.MultiWriter(f, h)); err != nil {
		return err
	}
	_, err := f.WriteAt(h.Sum(nil), int64(len(entryMagic)))
	return err
}

// OpenEntry opens the entry file at path and proves it intact: the
// magic must match and the payload must hash to the header's SHA-256.
// It returns the payload as a section of the open file, ready for
// memsys.NewTraceFile, and the file, which the caller closes. A damaged
// file is an error that says what failed, and one without the magic is
// ErrNotEntry.
func OpenEntry(path string) (*io.SectionReader, *os.File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	fi, err := f.Stat()
	var header [entryHeader]byte
	if err == nil {
		_, err = f.ReadAt(header[:], 0)
		if merr := checkMagic(header[:]); merr != nil {
			err = merr
		} else if err != nil {
			err = fmt.Errorf("entry header truncated: %w", err)
		}
	}
	var size int64
	if err == nil {
		size = fi.Size() - int64(entryHeader)
		h := sha256.New()
		if _, err = io.Copy(h, io.NewSectionReader(f, int64(entryHeader), size)); err == nil {
			err = checkEntry(header[:], [sha256.Size]byte(h.Sum(nil)))
		}
	}
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	return io.NewSectionReader(f, int64(entryHeader), size), f, nil
}

func (c *Cache) path(k Key) string {
	hx := k.String()
	return filepath.Join(c.dir, hx[:2], hx[2:]+".json")
}

// Get loads the entry for k and decodes its value with decode. Any
// failure — no cache, missing or unreadable file, wrong magic, checksum mismatch,
// decode error, even a decode panic — is a miss; damaged and old-format
// entries are removed so the recomputed result can be stored cleanly.
// ctx scopes the fault evaluation (injected delays honour request
// cancellation); nil selects context.Background.
func (c *Cache) Get(ctx context.Context, k Key, decode func([]byte) (any, error)) (v any, ok bool) {
	if c == nil || k.IsZero() {
		return nil, false
	}
	if ctx == nil {
		ctx = context.Background()
	}
	// Adversarial entry bytes (or an injected fault) may panic the
	// decoder; a cache read must degrade to a miss, never crash the run.
	defer func() {
		if recover() != nil {
			v, ok = nil, false
		}
	}()
	op := "cache.get:" + k.String()
	if err := c.inj.Do(ctx, op); err != nil {
		return nil, false
	}
	path := c.path(k)
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, false
	}
	data = c.inj.Data(op, data)
	if len(data) >= entryHeader {
		value := data[entryHeader:]
		if checkEntry(data, sha256.Sum256(value)) == nil {
			if v, err := decode(value); err == nil {
				return v, true
			}
		}
	}
	os.Remove(path) // corrupted or stale-format entry
	return nil, false
}

// Put stores value (already-encoded result bytes) under k atomically. A
// failed or faulted Put loses only cache warmth, never data: the caller
// already holds the result. ctx scopes the fault evaluation; nil selects
// context.Background.
func (c *Cache) Put(ctx context.Context, k Key, value []byte) (err error) {
	if k.IsZero() {
		return fmt.Errorf("runner: Put with zero key")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("runner: cache put panicked: %v", p)
		}
	}()
	if err := c.inj.Do(ctx, "cache.put:"+k.String()); err != nil {
		return err
	}
	path := c.path(k)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return WriteEntry(c.tmp, path, func(w io.Writer) error {
		_, err := w.Write(value)
		return err
	})
}
