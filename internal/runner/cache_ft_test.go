package runner

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"splash2/internal/fault"
)

// TestCacheSurvivesGarbageDir fills a cache directory with every flavor
// of garbage a crashed or hostile environment can leave — stray files,
// directories where files belong, unreadable entries, binary junk at
// valid entry paths — and asserts a run over it is still correct.
func TestCacheSurvivesGarbageDir(t *testing.T) {
	dir := t.TempDir()

	// Garbage before the cache is even opened.
	if err := os.WriteFile(filepath.Join(dir, "README"), []byte("not a cache entry"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(dir, "zz", "not-a-file.json"), 0o755); err != nil {
		t.Fatal(err)
	}

	cache, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}

	keys := make([]Key, 4)
	for i := range keys {
		keys[i] = KeyOf("garbage-test", fmt.Sprint(i))
	}
	// Valid entry paths holding binary junk.
	for _, k := range keys[:2] {
		hx := k.String()
		p := filepath.Join(dir, hx[:2], hx[2:]+".json")
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte{0x7f, 0x45, 0x4c, 0x46, 0x00}, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// An unreadable entry (meaningless when running as root, which can
	// read anything regardless of mode bits).
	if os.Geteuid() != 0 {
		hx := keys[2].String()
		p := filepath.Join(dir, hx[:2], hx[2:]+".json")
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte("{}"), 0o000); err != nil {
			t.Fatal(err)
		}
	}

	r := New(Options{Workers: 2, Cache: cache})
	g := r.NewGraph()
	jobs := make([]Job[int], len(keys))
	for i, k := range keys {
		i := i
		jobs[i] = Submit(g, Spec{Label: fmt.Sprintf("g-%d", i), Key: k},
			func(ctx context.Context) (int, error) { return i * 10, nil })
	}
	if err := g.Wait(context.Background()); err != nil {
		t.Fatalf("Wait over garbage cache: %v", err)
	}
	for i, j := range jobs {
		if v, err := j.Result(); err != nil || v != i*10 {
			t.Fatalf("job %d = %v, %v", i, v, err)
		}
	}
	if c := r.Counts(); c.CacheHits != 0 {
		t.Fatalf("garbage served as cache hits: %+v", c)
	}

	// The recomputed entries must now be stored and readable.
	r2 := New(Options{Cache: cache})
	g2 := r2.NewGraph()
	for i, k := range keys {
		i := i
		Submit(g2, Spec{Label: fmt.Sprintf("g-%d", i), Key: k},
			func(ctx context.Context) (int, error) {
				t.Errorf("job %d re-executed despite fresh cache entry", i)
				return 0, nil
			})
	}
	if err := g2.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if c := r2.Counts(); int(c.CacheHits) != len(keys) {
		t.Fatalf("second run cache hits = %d, want %d", c.CacheHits, len(keys))
	}
}

func TestOpenCacheSweepsStaleTmpFiles(t *testing.T) {
	dir := t.TempDir()
	sub := filepath.Join(dir, "tmp")
	if err := os.MkdirAll(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	stale := filepath.Join(sub, ".tmp-1234")
	fresh := filepath.Join(sub, ".tmp-5678")
	for _, p := range []string{stale, fresh} {
		if err := os.WriteFile(p, []byte("partial write"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	old := time.Now().Add(-2 * staleTmpAge)
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}

	if _, err := OpenCache(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("stale tmp file survived the sweep: %v", err)
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Fatalf("fresh tmp file was swept (could belong to a live run): %v", err)
	}
}

// TestOpenCacheLeavesShardTmpToResume: the open-time sweep lists tmp/
// alone, so a stale temp an older version left in a shard directory
// survives an open; the explicit resume sweep removes it.
func TestOpenCacheLeavesShardTmpToResume(t *testing.T) {
	dir := t.TempDir()
	stale := filepath.Join(dir, "ab", ".tmp-1234")
	if err := os.MkdirAll(filepath.Dir(stale), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(stale, []byte("partial write"), 0o644); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-2 * staleTmpAge)
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}

	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); err != nil {
		t.Fatalf("opening the cache read a shard directory: %v", err)
	}
	if removed := c.SweepCrashed(); len(removed) != 1 || removed[0] != stale {
		t.Fatalf("resume sweep removed %v, want [%s]", removed, stale)
	}
}

// TestCachePutRenameFailureLeavesNoTemp: a Put whose final rename fails
// (a directory where the entry belongs) removes its temp file from tmp/.
func TestCachePutRenameFailureLeavesNoTemp(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	k := KeyOf("test", "put-rename-fails")
	if err := os.MkdirAll(filepath.Join(c.path(k), "blocker"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(context.Background(), k, []byte("1")); err == nil {
		t.Fatal("Put over a directory succeeded")
	}
	left, err := os.ReadDir(filepath.Join(c.Dir(), "tmp"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Errorf("failed Put left %d file(s) in tmp/: %v", len(left), left)
	}
}

func TestCacheFaultInjection(t *testing.T) {
	dir := t.TempDir()
	cache, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	k := KeyOf("cache-fault", "entry")
	val, _ := json.Marshal(1234)
	if err := cache.Put(context.Background(), k, val); err != nil {
		t.Fatal(err)
	}
	decode := func(b []byte) (any, error) {
		var v int
		err := json.Unmarshal(b, &v)
		return v, err
	}
	if v, ok := cache.Get(context.Background(), k, decode); !ok || v != 1234 {
		t.Fatalf("clean Get = %v, %v", v, ok)
	}

	// Injected read error → miss.
	cache.SetFault(fault.New(1, fault.Rule{Pattern: "cache.get:*", Action: fault.Error, Nth: 1}))
	if _, ok := cache.Get(context.Background(), k, decode); ok {
		t.Fatal("faulted Get served a hit")
	}
	// Rule consumed (Nth=1): next Get sees the intact entry.
	if v, ok := cache.Get(context.Background(), k, decode); !ok || v != 1234 {
		t.Fatalf("post-fault Get = %v, %v", v, ok)
	}

	// Injected short read corrupts the entry mid-flight → miss (and
	// the on-disk entry is dropped as damaged, so the next run recomputes).
	cache.SetFault(fault.New(1, fault.Rule{Pattern: "cache.get:*", Action: fault.ShortRead, Keep: 10}))
	if _, ok := cache.Get(context.Background(), k, decode); ok {
		t.Fatal("short-read Get served a hit")
	}

	// Injected put error is surfaced, not fatal.
	cache.SetFault(fault.New(1, fault.Rule{Pattern: "cache.put:*", Action: fault.Error}))
	if err := cache.Put(context.Background(), k, val); err == nil {
		t.Fatal("faulted Put succeeded")
	}
	// Injected put panic is recovered into an error.
	cache.SetFault(fault.New(1, fault.Rule{Pattern: "cache.put:*", Action: fault.Panic}))
	if err := cache.Put(context.Background(), k, val); err == nil {
		t.Fatal("panicking Put returned nil error")
	}
}

func TestCacheGetRecoversDecodePanic(t *testing.T) {
	dir := t.TempDir()
	cache, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	k := KeyOf("cache-panic", "entry")
	val, _ := json.Marshal("boom")
	if err := cache.Put(context.Background(), k, val); err != nil {
		t.Fatal(err)
	}
	v, ok := cache.Get(context.Background(), k, func(b []byte) (any, error) { panic("decoder bug") })
	if ok || v != nil {
		t.Fatalf("panicking decode served a hit: %v", v)
	}
}
