package runner

import (
	"context"
	"crypto/sha256"
	"fmt"
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
// Writes go through a temporary file in <dir>/tmp (the engine's trace
// containers too) and a rename on the same filesystem, so concurrent
// runs sharing a cache directory never observe partial entries. Opening
// a cache lists tmp/ alone and removes what a crashed run left there
// over an hour ago; it reads no shard, journal or trace directory. Only
// an explicit resume (SweepCrashed) walks the tree: it reclaims leases,
// the reap files a killed takeover leaves beside its lease (the key's
// next contender clears an abandoned ".reap-lock") and temp files an
// older version wrote beside the entries.
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

// TmpDir returns <dir>/tmp, where temp files to rename into the cache go.
func (c *Cache) TmpDir() string { return c.tmp }

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

// EnableLeases turns on cross-process work leases (see lease.go) with
// the given TTL; ttl <= 0 selects DefaultLeaseTTL. Like SetFault it is
// setup-time configuration.
func (c *Cache) EnableLeases(ttl time.Duration) {
	c.ls = newLeases(c.dir, ttl)
	c.ls.inj = c.inj
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

// sweepTmp removes temp artifacts older than age under dir: cache entry
// temps (".tmp-*"), spill container/sidecar temps ("<key>.tmp*",
// "<key>.json.tmp*") and lease-reap leftovers (".reap-*"). Real
// artifacts (.json entries, .sp2t containers and their .sp2t.json
// sidecars, .lease files, journal .jsonl) never match. It lists the
// directories and stats only the temp names. OpenCache sweeps tmp/ alone
// with staleTmpAge; SweepCrashed walks the whole cache with age 0.
// Best-effort: sweep errors are ignored.
func sweepTmp(dir string, age time.Duration) (removed []string) {
	now := time.Now()
	filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		name := d.Name()
		if !strings.Contains(name, ".tmp") && !strings.Contains(name, ".reap-") {
			return nil
		}
		info, err := d.Info()
		if err != nil {
			return nil
		}
		if now.Sub(info.ModTime()) > age {
			if os.Remove(path) == nil {
				removed = append(removed, path)
			}
		}
		return nil
	})
	return removed
}

// SweepCrashed reclaims artifacts orphaned by dead runs, for an explicit
// resume: every temp file regardless of age, and every lease that is
// expired (mtime beyond ttl) or whose recorded owner is a dead process
// on this host. Live remote owners are untouched — their heartbeat keeps
// the mtime fresh. Returns the removed paths for the resume report.
func (c *Cache) SweepCrashed(ttl time.Duration) []string {
	if ttl <= 0 {
		ttl = DefaultLeaseTTL
	}
	removed := sweepTmp(c.dir, 0)
	host, _ := os.Hostname()
	filepath.Walk(c.dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() || !strings.HasSuffix(info.Name(), ".lease") {
			return nil
		}
		stale := time.Since(info.ModTime()) > ttl || ownerDead(path, host)
		if stale && os.Remove(path) == nil {
			removed = append(removed, path)
		}
		return nil
	})
	return removed
}

// entryMagic opens every entry file; the SHA-256 of the value follows.
const entryMagic = "SP2RES01"

const entryHeader = len(entryMagic) + sha256.Size

func (c *Cache) path(k Key) string {
	hx := k.String()
	return filepath.Join(c.dir, hx[:2], hx[2:]+".json")
}

// Get loads the entry for k and decodes its value with decode. Any
// failure — missing or unreadable file, wrong magic, checksum mismatch,
// decode error, even a decode panic — is a miss; damaged and old-format
// entries are removed so the recomputed result can be stored cleanly.
// ctx scopes the fault evaluation (injected delays honour request
// cancellation); nil selects context.Background.
func (c *Cache) Get(ctx context.Context, k Key, decode func([]byte) (any, error)) (v any, ok bool) {
	if k.IsZero() {
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
	if len(data) >= entryHeader && string(data[:len(entryMagic)]) == entryMagic {
		value := data[entryHeader:]
		if sha256.Sum256(value) == [sha256.Size]byte(data[len(entryMagic):entryHeader]) {
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
	sum := sha256.Sum256(value)
	entry := append(append(append(make([]byte, 0, entryHeader+len(value)), entryMagic...), sum[:]...), value...)
	path := c.path(k)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(c.tmp, ".tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(entry); err != nil {
		tmp.Close() //splash:allow durability cleanup close on an already-failing path; the Write error is what the caller sees and the temp file is removed
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}
