package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"splash2/internal/fault"
)

// spillGlob lists the spilled v2 containers under an engine cache dir.
func spillGlob(t *testing.T, dir string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "traces", "*.sp2t"))
	if err != nil {
		t.Fatal(err)
	}
	return paths
}

// TestSpillTracesMatchInMemory is the spilling equivalence invariant: a
// characterization whose recordings live in a cache directory's v2
// containers must be deep-equal to an uncached engine's, whose
// recordings live in its private directory, and the containers must
// actually exist on disk.
func TestSpillTracesMatchInMemory(t *testing.T) {
	o := engineTestOptions()
	base, err := CollectResults(o)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	e, err := NewEngine(EngineOptions{Workers: 4, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.CollectResults(o)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, res) {
		t.Fatalf("spilled results diverge from in-memory:\n got %+v\nwant %+v", res, base)
	}
	if len(spillGlob(t, dir)) == 0 {
		t.Fatal("no spilled containers written; the run tested nothing")
	}
}

// TestUncachedSpillIsPrivate: an engine without a cache directory keeps
// its recordings in a directory of its own, made 0700 in the temp
// directory when it first records and shared with no other engine, and
// the engine's Close removes it with every container in it.
func TestUncachedSpillIsPrivate(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	private := func() []string {
		dirs, err := filepath.Glob(filepath.Join(tmp, "splash2-spill-*"))
		if err != nil {
			t.Fatal(err)
		}
		return dirs
	}
	var engines []*Engine
	for range 2 {
		e, err := NewEngine(EngineOptions{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		if _, err := e.CollectResults(engineTestOptions()); err != nil {
			t.Fatal(err)
		}
		engines = append(engines, e)
	}
	dirs := private()
	if len(dirs) != 2 {
		t.Fatalf("two uncached engines made private directories %v, want one each", dirs)
	}
	for _, dir := range dirs {
		info, err := os.Stat(dir)
		if err != nil {
			t.Fatal(err)
		}
		if perm := info.Mode().Perm(); perm != 0o700 {
			t.Errorf("spill directory %s has mode %v, want 0700", dir, perm)
		}
		if paths, _ := filepath.Glob(filepath.Join(dir, "traces", "*.sp2t")); len(paths) == 0 {
			t.Fatalf("no spilled containers written in %s; the run tested nothing", dir)
		}
	}
	for i, e := range engines {
		for range 2 {
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
		}
		if left := private(); len(left) != len(engines)-1-i {
			t.Fatalf("%d of %d engines closed, private directories left: %v", i+1, len(engines), left)
		}
	}
}

// TestSpillReuseAndCorruptionFallback: a later engine over the same
// cache directory reuses a verified spilled container instead of
// re-recording (same inode, untouched bytes), while a corrupted
// container reads as a miss — silently re-recorded, never an error —
// and both still produce the baseline results.
func TestSpillReuseAndCorruptionFallback(t *testing.T) {
	o := engineTestOptions()
	base, err := CollectResults(o)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	first, err := NewEngine(EngineOptions{Workers: 4, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := first.CollectResults(o); err != nil {
		t.Fatal(err)
	}
	containers := spillGlob(t, dir)
	if len(containers) == 0 {
		t.Fatal("no spilled containers written")
	}
	stamp := func() map[string]int64 {
		m := map[string]int64{}
		for _, p := range containers {
			fi, err := os.Stat(p)
			if err != nil {
				t.Fatal(err)
			}
			m[p] = fi.ModTime().UnixNano()
		}
		return m
	}
	before := stamp()

	// Drop only the result cache (its two-character shard directories),
	// keeping the traces/ containers: the re-run must demand the record
	// jobs again and serve them from disk (spill goes through
	// tmp+rename, so a rewrite would change the mtime).
	dropResultCache := func() {
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, ent := range ents {
			if ent.Name() == "traces" {
				continue
			}
			if err := os.RemoveAll(filepath.Join(dir, ent.Name())); err != nil {
				t.Fatal(err)
			}
		}
	}
	dropResultCache()
	second, err := NewEngine(EngineOptions{Workers: 4, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	res, err := second.CollectResults(o)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, res) {
		t.Fatal("results served from spilled containers diverge from baseline")
	}
	if after := stamp(); !reflect.DeepEqual(before, after) {
		t.Fatalf("containers were rewritten on reuse:\nbefore %v\nafter  %v", before, after)
	}

	// Corrupt every container (no entry magic, so the verified open
	// fails): the loader must fall back to re-recording and overwrite
	// them.
	for _, p := range containers {
		if err := os.WriteFile(p, []byte("garbage, not a v2 container"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	dropResultCache()
	third, err := NewEngine(EngineOptions{Workers: 4, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	res, err = third.CollectResults(o)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, res) {
		t.Fatal("results after container corruption diverge from baseline")
	}
}

// TestChaosSpilledTraceFaults drives spilled characterizations through
// faults on the trace-read points ("trace.read", "trace.read.footer",
// "trace.read.block:<i>"). Open- and footer-level faults strike when the
// runner opens a container, which must degrade to the recording in hand
// or to re-recording — zero failures.
// Block-level faults strike mid-replay inside sweep jobs, so keep-going
// loses those experiments; either way every surviving row must be
// byte-identical to the fault-free run.
func TestChaosSpilledTraceFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite runs full characterizations")
	}
	clean := survivorIndex(t, chaosClean(t))
	cases := []struct {
		name string
		rule fault.Rule
		// recoverable faults degrade to re-recording: no failures allowed.
		recoverable bool
	}{
		{name: "open-error", recoverable: true,
			rule: fault.Rule{Pattern: "trace.read", Action: fault.Error}},
		{name: "footer-error", recoverable: true,
			rule: fault.Rule{Pattern: "trace.read.footer", Action: fault.Error}},
		{name: "footer-shortread", recoverable: true,
			rule: fault.Rule{Pattern: "trace.read.footer", Action: fault.ShortRead, Keep: 3}},
		{name: "block-error",
			rule: fault.Rule{Pattern: "trace.read.block:*", Action: fault.Error, Nth: -40}},
		{name: "block-shortread",
			rule: fault.Rule{Pattern: "trace.read.block:*", Action: fault.ShortRead, Nth: -40, Keep: 2}},
	}
	for _, tc := range cases {
		for _, seed := range chaosSeeds(t) {
			t.Run(fmt.Sprintf("%s/seed=%d", tc.name, seed), func(t *testing.T) {
				inj := fault.New(seed, tc.rule)
				e, err := NewEngine(EngineOptions{
					Workers:   4,
					CacheDir:  t.TempDir(),
					KeepGoing: true,
					Fault:     inj,
				})
				if err != nil {
					t.Fatal(err)
				}
				res, err := e.CollectResults(engineTestOptions())
				if tc.recoverable {
					if err != nil {
						t.Fatalf("recoverable trace fault surfaced as an error: %v", err)
					}
					if len(res.Failures) != 0 {
						t.Fatalf("recoverable trace fault lost experiments: %+v", res.Failures)
					}
				} else if err != nil && !errors.Is(err, ErrFailures) {
					t.Fatalf("keep-going run returned a hard error: %v", err)
				}
				if len(inj.Fired()) == 0 {
					t.Fatal("no fault fired; the case tested nothing")
				}
				for key, b := range survivorIndex(t, res) {
					want, ok := clean[key]
					if !ok {
						t.Errorf("survivor %s does not exist in the clean run", key)
						continue
					}
					if string(b) != string(want) {
						t.Errorf("survivor %s diverges from the clean run:\n got %s\nwant %s", key, b, want)
					}
				}
			})
		}
	}
}
