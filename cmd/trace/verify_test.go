package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"splash2/internal/cli"
	"splash2/internal/memsys"
	"splash2/internal/runner"
)

// writeEntry stores the bare container src as an engine entry at path
// (magic, SHA-256, container), the form of <cache-dir>/traces/*.sp2t.
func writeEntry(t *testing.T, src, path string) {
	t.Helper()
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := runner.WriteEntry(filepath.Dir(path), path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	}); err != nil {
		t.Fatal(err)
	}
}

// lieChecksum overwrites the SHA-256 in an entry's header.
func lieChecksum(t *testing.T, path string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt(make([]byte, 32), int64(len("SP2RES01"))); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyUsage(t *testing.T) {
	for _, args := range [][]string{
		{"verify"},                         // one of -i/-dir required
		{"verify", "-i", "x", "-dir", "y"}, // not both
		{"verify", "-badflag"},
	} {
		if code, _, _ := runCLI(t, args...); code != cli.ExitUsage {
			t.Errorf("run(%q) = %d, want %d", args, code, cli.ExitUsage)
		}
	}
}

// TestVerifyCleanContainers: freshly recorded containers of both formats
// verify clean, with the v2 path reporting its block decode.
func TestVerifyCleanContainers(t *testing.T) {
	dir := t.TempDir()
	v1 := recordTo(t, dir, "v1")
	v2 := recordTo(t, dir, "v2")

	code, out, stderr := runCLI(t, "verify", "-i", v1)
	if code != cli.ExitOK {
		t.Fatalf("verify v1 exited %d: %s", code, stderr)
	}
	if !strings.Contains(out, "v1 full decode") || !strings.Contains(out, "no entry checksum") {
		t.Errorf("v1 verify output lacks its proofs: %s", out)
	}

	code, out, stderr = runCLI(t, "verify", "-i", v2)
	if code != cli.ExitOK {
		t.Fatalf("verify v2 exited %d: %s", code, stderr)
	}
	if !strings.Contains(out, "blocks") {
		t.Errorf("v2 verify output lacks the block count: %s", out)
	}
}

// TestVerifyEntryChecksum: an engine entry's checksum is part of the
// proof; a lying one fails the container.
func TestVerifyEntryChecksum(t *testing.T) {
	dir := t.TempDir()
	entry := filepath.Join(dir, "fft.sp2t")
	writeEntry(t, recordTo(t, t.TempDir(), "v2"), entry)

	code, out, stderr := runCLI(t, "verify", "-i", entry)
	if code != cli.ExitOK {
		t.Fatalf("verify of a good entry exited %d: %s", code, stderr)
	}
	if !strings.Contains(out, "entry sha256") || !strings.Contains(out, "blocks") {
		t.Errorf("verify output lacks the checksum or block proof: %s", out)
	}

	lieChecksum(t, entry)
	code, _, stderr = runCLI(t, "verify", "-i", entry)
	if code != cli.ExitRuntime {
		t.Fatalf("verify with a lying checksum exited %d, want %d", code, cli.ExitRuntime)
	}
	if !strings.Contains(stderr, "mismatch") {
		t.Errorf("stderr does not name the hash mismatch: %s", stderr)
	}
}

// TestVerifyCorruptBlock: flipping a block's tag byte is caught by the
// per-block cross-check against the index footer.
func TestVerifyCorruptBlock(t *testing.T) {
	dir := t.TempDir()
	v2 := recordTo(t, dir, "v2")

	tf, err := memsys.OpenTraceFile(v2, nil)
	if err != nil {
		t.Fatal(err)
	}
	offset := tf.Index()[0].Offset
	tf.Close()
	f, err := os.OpenFile(v2, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xFF}, offset); err != nil {
		t.Fatal(err)
	}
	f.Close()

	code, _, stderr := runCLI(t, "verify", "-i", v2)
	if code != cli.ExitRuntime {
		t.Fatalf("verify of corrupt container exited %d, want %d (stderr: %s)", code, cli.ExitRuntime, stderr)
	}
}

// TestVerifyDir audits an engine's trace directory: one good entry and
// one with a lying checksum → exit 3 naming only the damaged one; an empty directory is
// a clean no-op.
func TestVerifyDir(t *testing.T) {
	empty := t.TempDir()
	if code, _, stderr := runCLI(t, "verify", "-dir", empty); code != cli.ExitOK {
		t.Fatalf("verify of empty dir exited %d: %s", code, stderr)
	}

	dir := t.TempDir()
	good := filepath.Join(dir, "good.sp2t")
	bad := filepath.Join(dir, "bad.sp2t")
	src := recordTo(t, t.TempDir(), "v2")
	writeEntry(t, src, good)
	writeEntry(t, src, bad)
	lieChecksum(t, bad)

	code, out, stderr := runCLI(t, "verify", "-dir", dir)
	if code != cli.ExitRuntime {
		t.Fatalf("verify of damaged dir exited %d, want %d", code, cli.ExitRuntime)
	}
	if !strings.Contains(out, "good.sp2t ok") {
		t.Errorf("good container not reported ok: %s", out)
	}
	if !strings.Contains(stderr, "bad.sp2t") || !strings.Contains(stderr, "1 of 2") {
		t.Errorf("damage report wrong: %s", stderr)
	}
}
