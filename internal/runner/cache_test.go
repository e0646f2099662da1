package runner

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func decodeInt(b []byte) (any, error) {
	var v int
	err := json.Unmarshal(b, &v)
	return v, err
}

func TestCacheRoundTrip(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := KeyOf("test", "roundtrip")
	if _, ok := c.Get(context.Background(), k, decodeInt); ok {
		t.Fatal("hit on empty cache")
	}
	if err := c.Put(context.Background(), k, []byte("123")); err != nil {
		t.Fatal(err)
	}
	v, ok := c.Get(context.Background(), k, decodeInt)
	if !ok || v.(int) != 123 {
		t.Fatalf("got %v, %v", v, ok)
	}
}

func TestCachePutZeroKeyRejected(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put(context.Background(), Key{}, []byte("1")); err == nil {
		t.Fatal("zero key accepted")
	}
	if _, ok := c.Get(context.Background(), Key{}, decodeInt); ok {
		t.Fatal("zero key hit")
	}
}

// cacheFiles returns every entry file under the cache root.
func cacheFiles(t *testing.T, dir string) []string {
	t.Helper()
	var files []string
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && filepath.Ext(path) == ".json" {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

func TestCacheCorruptionIsAMiss(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	k := KeyOf("test", "corrupt")
	if err := c.Put(context.Background(), k, []byte("42")); err != nil {
		t.Fatal(err)
	}

	corruptions := map[string]func(path string){
		"garbage":   func(p string) { os.WriteFile(p, []byte("not json at all"), 0o644) },
		"truncated": func(p string) { b, _ := os.ReadFile(p); os.WriteFile(p, b[:len(b)/2], 0o644) },
		"wrong-sum": func(p string) {
			b := entryBytes([]byte("42"))
			b[len(entryMagic)] ^= 1
			os.WriteFile(p, b, 0o644)
		},
		"bad-decode": func(p string) { os.WriteFile(p, entryBytes([]byte(`"a string"`)), 0o644) },
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			if err := c.Put(context.Background(), k, []byte("42")); err != nil {
				t.Fatal(err)
			}
			files := cacheFiles(t, dir)
			if len(files) != 1 {
				t.Fatalf("cache files = %d, want 1", len(files))
			}
			corrupt(files[0])
			if _, ok := c.Get(context.Background(), k, decodeInt); ok {
				t.Fatal("corrupted entry served as a hit")
			}
			if left := cacheFiles(t, dir); len(left) != 0 {
				t.Fatalf("corrupted entry not removed: %v", left)
			}
			// The slot is reusable after recomputation.
			if err := c.Put(context.Background(), k, []byte("42")); err != nil {
				t.Fatal(err)
			}
			if v, ok := c.Get(context.Background(), k, decodeInt); !ok || v.(int) != 42 {
				t.Fatalf("recomputed entry not served: %v %v", v, ok)
			}
		})
	}
}

// entryBytes is the entry file Put writes for value: the magic, the
// value's SHA-256, the value.
func entryBytes(value []byte) []byte {
	sum := sha256.Sum256(value)
	return append(append([]byte(entryMagic), sum[:]...), value...)
}

func TestCacheSharding(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	k := KeyOf("test", "shard")
	if err := c.Put(context.Background(), k, []byte("1")); err != nil {
		t.Fatal(err)
	}
	want := filepath.Join(dir, k.String()[:2], k.String()[2:]+".json")
	if _, err := os.Stat(want); err != nil {
		t.Fatalf("entry not at sharded path %s: %v", want, err)
	}
}

func TestDefaultDirIsUnderUserCache(t *testing.T) {
	d, err := DefaultDir()
	if err != nil {
		t.Skip("no user cache dir in this environment")
	}
	if filepath.Base(d) != "splash2" {
		t.Fatalf("default dir %q not a splash2 subdirectory", d)
	}
}
