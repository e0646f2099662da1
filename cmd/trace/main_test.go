package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"splash2"
	"splash2/internal/cli"
	"splash2/internal/core"
	"splash2/internal/memsys"
)

func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// recordTo records a small fft trace into dir and returns its path.
func recordTo(t *testing.T, dir, format string) string {
	t.Helper()
	path := filepath.Join(dir, "fft."+format)
	code, _, stderr := runCLI(t, "record", "-app", "fft", "-p", "2", "-opt", "n=64", "-o", path, "-format", format)
	if code != cli.ExitOK {
		t.Fatalf("record exited %d: %s", code, stderr)
	}
	return path
}

func TestUsageErrors(t *testing.T) {
	cases := [][]string{
		{},
		{"frobnicate"},
		{"record"}, // -app and -o required
		{"record", "-app", "fft", "-o", "x", "-format", "v3"},
		{"record", "-badflag"},
		{"replay"},                       // -i required
		{"replay", "-i", "x", "-stream"}, // v2 always streams; the flag is gone
		{"info"},                         // -i required
		{"convert", "-i", "x"},           // -o required
		{"convert", "-i", "x", "-o", "y", "-to", "v9"},
	}
	for _, args := range cases {
		if code, _, _ := runCLI(t, args...); code != cli.ExitUsage {
			t.Errorf("run(%q) = %d, want %d", args, code, cli.ExitUsage)
		}
	}
}

func TestRuntimeErrors(t *testing.T) {
	dir := t.TempDir()
	garbage := filepath.Join(dir, "garbage.trace")
	if err := os.WriteFile(garbage, []byte("this is not a trace container"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := [][]string{
		{"record", "-app", "no-such-program", "-o", filepath.Join(dir, "x")},
		{"replay", "-i", filepath.Join(dir, "missing.trace")},
		{"replay", "-i", garbage},
		{"info", "-i", garbage},
		{"convert", "-i", garbage, "-o", filepath.Join(dir, "y")},
	}
	for _, args := range cases {
		code, _, stderr := runCLI(t, args...)
		if code != cli.ExitRuntime {
			t.Errorf("run(%q) = %d, want %d", args, code, cli.ExitRuntime)
		}
		if !strings.Contains(stderr, "trace:") {
			t.Errorf("run(%q) stderr lacks a descriptive error: %q", args, stderr)
		}
	}
}

// convertTo converts a trace file with `trace convert` and returns the
// output path.
func convertTo(t *testing.T, in, out, to string) string {
	t.Helper()
	if code, _, stderr := runCLI(t, "convert", "-i", in, "-o", out, "-to", to); code != cli.ExitOK {
		t.Fatalf("convert to %s exited %d: %s", to, code, stderr)
	}
	return out
}

// TestStreamReplayMatchesInMemory is the cross-format differential test
// of replay: a v2 container, which streams from disk, prints exactly the
// bytes its v1 conversion prints when decoded into memory, for both the
// single-configuration and sweep paths.
func TestStreamReplayMatchesInMemory(t *testing.T) {
	dir := t.TempDir()
	v2 := recordTo(t, dir, "v2")
	v1 := convertTo(t, v2, filepath.Join(dir, "fft.flat"), "v1")

	for _, extra := range [][]string{
		{"-cache", "16384", "-assoc", "2"},
		{"-sweep"},
		{"-sweep", "-assoc", "0"},
	} {
		code, memOut, stderr := runCLI(t, append([]string{"replay", "-i", v1}, extra...)...)
		if code != cli.ExitOK {
			t.Fatalf("v1 replay exited %d: %s", code, stderr)
		}
		code, strOut, stderr := runCLI(t, append([]string{"replay", "-i", v2}, extra...)...)
		if code != cli.ExitOK {
			t.Fatalf("v2 replay exited %d: %s", code, stderr)
		}
		if memOut != strOut {
			t.Errorf("streamed v2 replay diverges from in-memory v1 for %q:\n got %s\nwant %s", extra, strOut, memOut)
		}
	}
}

// TestReplayWindow: -window restricts a v2 replay to the epochs stamped
// on its blocks — exactly the references the index lists for them —
// differs from the full replay, and rejects malformed ranges.
func TestReplayWindow(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "fft.sp2t")
	if code, _, stderr := runCLI(t, "record", "-app", "fft", "-p", "4", "-opt", "n=1024", "-o", path); code != cli.ExitOK {
		t.Fatalf("record exited %d: %s", code, stderr)
	}
	tf, err := splash2.OpenTraceFile(path)
	if err != nil {
		t.Fatal(err)
	}
	index := tf.Index()
	tf.Close()

	code, fullOut, stderr := runCLI(t, "replay", "-i", path)
	if code != cli.ExitOK {
		t.Fatalf("full replay exited %d: %s", code, stderr)
	}
	for _, w := range [][2]uint64{{0, 1}, {1, 1}, {1, 3}} {
		var want uint64
		for _, b := range index {
			if !b.Marker && b.Epoch >= w[0] && b.Epoch < w[0]+w[1] {
				want += uint64(b.Events)
			}
		}
		code, out, stderr := runCLI(t, "replay", "-i", path, "-window", fmt.Sprintf("%d:%d", w[0], w[1]))
		if code != cli.ExitOK {
			t.Fatalf("-window %d:%d exited %d: %s", w[0], w[1], code, stderr)
		}
		if prefix := fmt.Sprintf("replayed %d references ", want); !strings.HasPrefix(out, prefix) {
			t.Errorf("-window %d:%d: want %q, got %s", w[0], w[1], prefix, out)
		}
		if out == fullOut {
			t.Errorf("-window %d:%d replayed the same references as the full trace:\n%s", w[0], w[1], out)
		}
	}

	for _, bad := range []string{"nope", "1", "1:0", "-2:3", ":"} {
		if code, _, _ := runCLI(t, "replay", "-i", path, "-window", bad); code != cli.ExitUsage {
			t.Errorf("-window %q exited %d, want %d", bad, code, cli.ExitUsage)
		}
	}
}

// TestSweepMatchesPerSizeReplay pins the -sweep table, set-associative
// (-assoc 4) and fully associative (-assoc 0), from v1 and v2 input, to
// the table per-size ReplayTrace calls print.
func TestSweepMatchesPerSizeReplay(t *testing.T) {
	dir := t.TempDir()
	for _, format := range []string{"v1", "v2"} {
		path := filepath.Join(dir, "fft."+format)
		if code, _, stderr := runCLI(t, "record", "-app", "fft", "-p", "4", "-opt", "n=1024", "-o", path, "-format", format); code != cli.ExitOK {
			t.Fatalf("record exited %d: %s", code, stderr)
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := memsys.ReadTrace(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		for _, assoc := range []int{4, memsys.FullyAssoc} {
			want := fmt.Sprintf("%-10s %-10s\n", "cache", "miss rate")
			for _, cs := range splash2.DefaultCacheSizes() {
				st, err := splash2.ReplayTrace(tr, splash2.MemConfig{Procs: tr.Meta().MinProcs, CacheSize: cs, Assoc: assoc, LineSize: 64})
				if err != nil {
					t.Fatal(err)
				}
				want += fmt.Sprintf("%-10s %.3f%%\n", fmt.Sprintf("%dK", cs/1024), 100*st.MissRate())
			}
			code, got, stderr := runCLI(t, "replay", "-i", path, "-sweep", "-assoc", strconv.Itoa(assoc))
			if code != cli.ExitOK {
				t.Fatalf("%s -assoc %d sweep exited %d: %s", format, assoc, code, stderr)
			}
			if got != want {
				t.Errorf("%s -assoc %d sweep:\n got %s\nwant %s", format, assoc, got, want)
			}
		}
	}
}

// TestStreamReplayRejectsV1: an epoch window needs the epochs a v2
// container stamps on its blocks, so -window on a flat v1 trace is a
// usage error that points at trace convert.
func TestStreamReplayRejectsV1(t *testing.T) {
	v1 := recordTo(t, t.TempDir(), "v1")
	code, _, stderr := runCLI(t, "replay", "-i", v1, "-window", "0:1")
	if code != cli.ExitUsage {
		t.Fatalf("-window on a v1 trace exited %d, want %d", code, cli.ExitUsage)
	}
	if !strings.Contains(stderr, "trace convert") {
		t.Errorf("error does not point at trace convert: %s", stderr)
	}
}

// TestConvertRoundTrip: v1 → v2 → v1 must reproduce the original flat
// bytes exactly, and every form must replay identically.
func TestConvertRoundTrip(t *testing.T) {
	dir := t.TempDir()
	v1 := recordTo(t, dir, "v1")
	v2 := filepath.Join(dir, "fft.sp2t")
	back := filepath.Join(dir, "fft.back.trace")

	if code, _, stderr := runCLI(t, "convert", "-i", v1, "-o", v2); code != cli.ExitOK {
		t.Fatalf("convert to v2 exited %d: %s", code, stderr)
	}
	if code, _, stderr := runCLI(t, "convert", "-i", v2, "-o", back, "-to", "v1"); code != cli.ExitOK {
		t.Fatalf("convert back to v1 exited %d: %s", code, stderr)
	}

	orig, err := os.ReadFile(v1)
	if err != nil {
		t.Fatal(err)
	}
	round, err := os.ReadFile(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(orig, round) {
		t.Fatalf("v1 → v2 → v1 round trip changed the bytes: %d vs %d", len(orig), len(round))
	}

	fi1, err := os.Stat(v1)
	if err != nil {
		t.Fatal(err)
	}
	fi2, err := os.Stat(v2)
	if err != nil {
		t.Fatal(err)
	}
	if fi2.Size() >= fi1.Size() {
		t.Errorf("v2 container (%d bytes) is not smaller than flat v1 (%d bytes)", fi2.Size(), fi1.Size())
	}

	code, v1Out, stderr := runCLI(t, "replay", "-i", v1, "-sweep")
	if code != cli.ExitOK {
		t.Fatalf("v1 replay exited %d: %s", code, stderr)
	}
	code, v2Out, stderr := runCLI(t, "replay", "-i", v2, "-sweep")
	if code != cli.ExitOK {
		t.Fatalf("v2 replay exited %d: %s", code, stderr)
	}
	if v1Out != v2Out {
		t.Errorf("v2 replay diverges from v1:\n got %s\nwant %s", v2Out, v1Out)
	}
}

// TestInfoReportsBothFormats: info prints counts for either container,
// with the block shape only for v2.
func TestInfoReportsBothFormats(t *testing.T) {
	dir := t.TempDir()
	v1 := recordTo(t, dir, "v1")
	v2 := recordTo(t, dir, "v2")

	code, out, stderr := runCLI(t, "info", "-i", v1)
	if code != cli.ExitOK {
		t.Fatalf("info v1 exited %d: %s", code, stderr)
	}
	for _, want := range []string{"format          v1", "events", "processors      2", "bytes/reference"} {
		if !strings.Contains(out, want) {
			t.Errorf("v1 info lacks %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "blocks") {
		t.Errorf("v1 info reports a block index:\n%s", out)
	}

	code, out, stderr = runCLI(t, "info", "-i", v2)
	if code != cli.ExitOK {
		t.Fatalf("info v2 exited %d: %s", code, stderr)
	}
	for _, want := range []string{"format          v2", "blocks", "events/block", "bytes/block", "epochs"} {
		if !strings.Contains(out, want) {
			t.Errorf("v2 info lacks %q:\n%s", want, out)
		}
	}
}

// TestInfoReadsEngineContainer: a recording an engine stored in its
// cache directory is a checksummed entry around a v2 container; info
// and replay read it like a bare one.
func TestInfoReadsEngineContainer(t *testing.T) {
	dir := t.TempDir()
	e, err := core.NewEngine(core.EngineOptions{Workers: 2, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	req := core.Request{Kind: core.KindWorkingSets, Apps: []string{"fft"}, Procs: 2, CacheSizes: []int{16 << 10}}
	if _, err := e.Do(context.Background(), req, nil); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	containers, err := filepath.Glob(filepath.Join(dir, "traces", "*.sp2t"))
	if err != nil || len(containers) != 1 {
		t.Fatalf("engine wrote containers %v (err %v), want one", containers, err)
	}

	code, out, stderr := runCLI(t, "info", "-i", containers[0])
	if code != cli.ExitOK {
		t.Fatalf("info of an engine container exited %d: %s", code, stderr)
	}
	for _, want := range []string{"format          v2", "sha256 verified", "processors      2", "blocks"} {
		if !strings.Contains(out, want) {
			t.Errorf("engine container info lacks %q:\n%s", want, out)
		}
	}
	if code, _, stderr := runCLI(t, "replay", "-i", containers[0], "-sweep"); code != cli.ExitOK {
		t.Fatalf("replay of an engine container exited %d: %s", code, stderr)
	}
}

// TestStreamFaultInjection drills the block-read fault point from the
// CLI: an injected error in a streamed v2 replay surfaces as a
// descriptive runtime failure.
func TestStreamFaultInjection(t *testing.T) {
	v2 := recordTo(t, t.TempDir(), "v2")
	code, _, stderr := runCLI(t,
		"replay", "-i", v2, "-fault", "error@2=trace.read.block:*")
	if code != cli.ExitRuntime {
		t.Fatalf("fault-injected replay exited %d, want %d (stderr: %s)", code, cli.ExitRuntime, stderr)
	}
	if !strings.Contains(stderr, "injected") {
		t.Errorf("stderr does not surface the injected fault: %s", stderr)
	}
}
