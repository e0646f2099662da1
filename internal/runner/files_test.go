package runner

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"splash2/internal/memsys"
)

// testTrace records a small trace of one processor.
func testTrace() *memsys.Trace {
	rec := memsys.NewRecorder(64)
	events := make([]uint64, 4096)
	for i := range events {
		events[i] = uint64(i%300*64)<<8 | uint64(i%2)
	}
	rec.RecordBatch(0, 0, events)
	return rec.Finish(nil)
}

// v2Bytes is a trace's v2 container.
func v2Bytes(t *testing.T, tr *memsys.Trace) []byte {
	t.Helper()
	var b bytes.Buffer
	if _, err := tr.WriteV2(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestFileEntryServedAcrossRunners: a trace job's result is stored as a
// verified entry file under traces/, a later runner on the cache is
// served from it without running the job, and a damaged file is a miss
// that the job's next run rewrites.
func TestFileEntryServedAcrossRunners(t *testing.T) {
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	want := v2Bytes(t, testTrace())
	k := KeyOf("test", "trace")
	var ran atomic.Int64
	run := func() (*memsys.Trace, Counts) {
		r := New(Options{Workers: 2, Cache: cache})
		t.Cleanup(func() { r.Close() })
		g := r.NewGraph()
		j := Submit(g, Spec{Label: "record", Key: k}, func(context.Context) (*memsys.Trace, error) {
			ran.Add(1)
			return testTrace(), nil
		})
		if err := g.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		tr, err := j.Result()
		if err != nil {
			t.Fatal(err)
		}
		return tr, r.Counts()
	}
	path := filepath.Join(cache.Dir(), "traces", k.String()+".sp2t")

	tr, _ := run()
	if got := v2Bytes(t, tr); !bytes.Equal(got, want) || ran.Load() != 1 {
		t.Fatalf("first run: ran %d times, trace equal %v", ran.Load(), bytes.Equal(got, want))
	}
	if _, err := readEntry(path); err != nil {
		t.Fatalf("no verified entry at %s: %v", path, err)
	}

	tr, c := run()
	if ran.Load() != 1 || c.CacheHits != 1 || c.Executed != 0 {
		t.Fatalf("second run: ran %d times in all, counts %+v; want it served from the file", ran.Load(), c)
	}
	if !bytes.Equal(v2Bytes(t, tr), want) {
		t.Fatal("the trace served from the file differs from the recorded one")
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-10] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	tr, c = run()
	if ran.Load() != 2 || c.CacheHits != 0 {
		t.Fatalf("over a damaged file: ran %d times in all, counts %+v; want one more run", ran.Load(), c)
	}
	if !bytes.Equal(v2Bytes(t, tr), want) {
		t.Fatal("the re-run trace differs from the recorded one")
	}
	if got, err := readEntry(path); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("damaged file not rewritten (err %v)", err)
	}
}

// TestFileEntryStoreServesJob: a job that makes a trace as a by-product
// stores it for a dependent trace job that is going to run; the trace
// job is served from it and never runs its body. An uncached runner
// keeps the file in a private directory made on first use and removed
// by Close, and makes none after Close.
func TestFileEntryStoreServesJob(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	private := func() []string {
		dirs, _ := filepath.Glob(filepath.Join(tmp, "splash2-spill-*"))
		return dirs
	}
	r := New(Options{Workers: 2})
	g := r.NewGraph()
	var recorded atomic.Int64
	var needed bool
	rec := Submit(g, Spec{Label: "record", Key: KeyOf("test", "rec"), Lazy: true}, func(context.Context) (*memsys.Trace, error) {
		recorded.Add(1)
		return testTrace(), nil
	})
	exec := Submit(g, Spec{Label: "exec", Key: KeyOf("test", "exec"), Lazy: true}, func(ctx context.Context) (int, error) {
		if needed = g.Needs(rec); needed {
			Store(ctx, g, rec, testTrace())
		}
		return 1, nil
	})
	g.Depend(rec, exec)
	replay := Submit(g, Spec{Label: "replay", Deps: []Handle{rec}}, func(context.Context) ([]byte, error) {
		tr, err := rec.Result()
		if err != nil {
			return nil, err
		}
		return v2Bytes(t, tr), nil
	})
	if len(private()) != 0 {
		t.Fatal("a private directory exists before anything was stored")
	}
	if err := g.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !needed || recorded.Load() != 0 {
		t.Fatalf("exec saw Needs = %v and the record job ran %d times; want true and 0", needed, recorded.Load())
	}
	if got, _ := replay.Result(); !bytes.Equal(got, v2Bytes(t, testTrace())) {
		t.Fatal("the replay read a trace other than the stored one")
	}
	dirs := private()
	if len(dirs) != 1 {
		t.Fatalf("private directories %v, want one", dirs)
	}
	if files, _ := filepath.Glob(filepath.Join(dirs[0], "traces", "*.sp2t")); len(files) != 1 {
		t.Fatalf("private directory holds %v, want the one stored trace", files)
	}
	for range 2 {
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if left := private(); len(left) != 0 {
		t.Fatalf("Close left %v", left)
	}
	// A body abandoned at its timeout may finish and store after Close;
	// it must not make a new private directory that nothing removes.
	Store(context.Background(), g, rec, testTrace())
	if left := private(); len(left) != 0 {
		t.Fatalf("a store after Close made %v", left)
	}
}
