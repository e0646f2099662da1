package runner

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// writeTestEntry stores payload at path through WriteEntry, with dir's
// tmp/ as the temp directory.
func writeTestEntry(t *testing.T, dir, path string, payload []byte) {
	t.Helper()
	tmp := filepath.Join(dir, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteEntry(tmp, path, func(w io.Writer) error {
		_, err := w.Write(payload)
		return err
	}); err != nil {
		t.Fatal(err)
	}
}

// readEntry opens path through the verifier and reads its payload.
func readEntry(path string) ([]byte, error) {
	payload, f, err := OpenEntry(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return io.ReadAll(payload)
}

// assertTmpEmpty fails when a temp file is left in dir/tmp.
func assertTmpEmpty(t *testing.T, dir string) {
	t.Helper()
	left, err := os.ReadDir(filepath.Join(dir, "tmp"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Fatalf("temp files left behind: %v", left)
	}
}

// TestCacheEntryRoundTrip: a streamed entry verifies and hands back its
// payload byte for byte, at every size from empty to many write calls.
func TestCacheEntryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	for _, n := range []int{0, 1, 4096, 1 << 20} {
		payload := bytes.Repeat([]byte{byte(n), 0x5a, 0xc3}, n/3+1)[:n]
		path := filepath.Join(dir, "e.sp2t")
		writeTestEntry(t, dir, path, payload)
		got, err := readEntry(path)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("n=%d: payload round trip differs (%d bytes back)", n, len(got))
		}
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() != int64(entryHeader+n) {
			t.Fatalf("n=%d: entry is %d bytes, want header + payload = %d", n, fi.Size(), entryHeader+n)
		}
	}
	assertTmpEmpty(t, dir)
}

// TestCacheEntryFailedWriteLeavesNothing: a write that fails leaves no
// file at the final path and no temp file behind.
func TestCacheEntryFailedWriteLeavesNothing(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "tmp"), 0o755); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "e.sp2t")
	boom := errors.New("boom")
	err := WriteEntry(filepath.Join(dir, "tmp"), path, func(w io.Writer) error {
		w.Write([]byte("half a payload"))
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("WriteEntry error = %v, want the write's", err)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("a failed write reached the final path (stat error %v)", err)
	}
	assertTmpEmpty(t, dir)
}

// TestCacheEntryDamageIsAMiss: every kind of damage to an entry file —
// a truncated payload, a flipped payload byte, a lying checksum, a
// wrong magic, a truncated header — fails the one check, both for the
// streaming verifier (a trace container) and for Cache.Get (a result).
// Only a wrong or missing magic makes OpenEntry say ErrNotEntry.
func TestCacheEntryDamageIsAMiss(t *testing.T) {
	value := []byte(`{"miss":"rate","value":12345}`)
	cases := []struct {
		name    string
		damage  func([]byte) []byte
		present bool
	}{
		{"truncated-payload", func(b []byte) []byte { return b[:len(b)-3] }, true},
		{"flipped-payload-byte", func(b []byte) []byte { b[entryHeader+5] ^= 0x01; return b }, true},
		{"lying-checksum", func(b []byte) []byte { b[len(entryMagic)] ^= 0xff; return b }, true},
		{"wrong-magic", func(b []byte) []byte { copy(b, "SP2RES00"); return b }, false},
		{"truncated-header", func(b []byte) []byte { return b[:entryHeader-1] }, true},
		{"magic-only", func(b []byte) []byte { return b[:len(entryMagic)-1] }, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := OpenCache(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			k := KeyOf("test", tc.name)
			if err := c.Put(context.Background(), k, value); err != nil {
				t.Fatal(err)
			}
			path := c.path(k)
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.damage(raw), 0o644); err != nil {
				t.Fatal(err)
			}
			_, err = readEntry(path)
			if err == nil {
				t.Error("OpenEntry verified a damaged entry")
			}
			if got := !errors.Is(err, ErrNotEntry); got != tc.present {
				t.Errorf("OpenEntry error %v: magic present = %v, want %v", err, got, tc.present)
			}
			if v, ok := c.Get(context.Background(), k, decodeInt); ok {
				t.Errorf("Get served a damaged entry: %v", v)
			}
		})
	}
}

// TestCacheEntryReaderNeverSeesTornWrite races readers against a writer
// that keeps replacing one entry with one of two payloads of many write
// calls each: every open must verify and hand back one whole payload.
func TestCacheEntryReaderNeverSeesTornWrite(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "e.sp2t")
	payloads := [][]byte{bytes.Repeat([]byte("a"), 256<<10), bytes.Repeat([]byte("bc"), 200<<10)}
	writeTestEntry(t, dir, path, payloads[0])

	const writes, readers = 40, 2
	var wg sync.WaitGroup
	done := make(chan struct{})
	errs := make(chan error, readers)
	for range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				got, err := readEntry(path)
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(got, payloads[0]) && !bytes.Equal(got, payloads[1]) {
					errs <- errors.New("read a payload that is neither written one")
					return
				}
			}
		}()
	}
	for i := range writes {
		if err := WriteEntry(filepath.Join(dir, "tmp"), path, func(w io.Writer) error {
			_, err := w.Write(payloads[i%2])
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	assertTmpEmpty(t, dir)
}
