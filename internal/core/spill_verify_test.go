package core

import (
	"bytes"
	"crypto/sha256"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"splash2/internal/memsys"
	"splash2/internal/runner"
)

// entryHeaderLen is the size of a container's entry header: the runner's
// eight-byte magic and the payload's SHA-256.
const entryHeaderLen = 8 + sha256.Size

// keepOnlyTraces removes everything in a cache directory but traces/:
// the result entries, the journals and tmp/.
func keepOnlyTraces(t *testing.T, dir string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		if ent.Name() != "traces" {
			if err := os.RemoveAll(filepath.Join(dir, ent.Name())); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// flipWriteBit flips one bit of a container's v2 payload so that the
// payload still parses and every block still decodes — one reference
// turns from a read into a write or back — and only the entry's
// checksum can tell.
func flipWriteBit(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	decodeAll := func(payload []byte) ([][]uint64, bool) {
		tf, err := memsys.NewTraceFile(bytes.NewReader(payload), int64(len(payload)), nil)
		if err != nil {
			return nil, false
		}
		var blocks [][]uint64
		for i := range tf.Index() {
			ev, err := tf.DecodeBlock(i)
			if err != nil {
				return nil, false
			}
			blocks = append(blocks, ev)
		}
		return blocks, true
	}
	payload := raw[entryHeaderLen:]
	clean, ok := decodeAll(payload)
	if !ok {
		t.Fatalf("%s does not hold a valid v2 container", path)
	}
	tf, err := memsys.NewTraceFile(bytes.NewReader(payload), int64(len(payload)), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range tf.Index() {
		if b.Marker {
			continue
		}
		for off := b.Offset + 1; off < b.Offset+b.Size; off++ {
			flipped := bytes.Clone(payload)
			flipped[off] ^= 1
			got, ok := decodeAll(flipped)
			if !ok || !onlyWriteBitsDiffer(got[i], clean[i]) {
				continue
			}
			if err := os.WriteFile(path, append(raw[:entryHeaderLen:entryHeaderLen], flipped...), 0o644); err != nil {
				t.Fatal(err)
			}
			return
		}
	}
	t.Fatalf("%s: no single-bit flip keeps the container decodable", path)
}

// onlyWriteBitsDiffer reports whether two decodes of a block differ, and
// only in the read/write bit of their events.
func onlyWriteBitsDiffer(a, b []uint64) bool {
	if len(a) != len(b) || slices.Equal(a, b) {
		return false
	}
	for i := range a {
		if a[i]>>1 != b[i]>>1 {
			return false
		}
	}
	return true
}

// TestSpillDecodableCorruptionIsReRecorded: a container whose payload
// still decodes as a valid v2 stream after a one-bit flip is caught by
// its checksum alone. Every such container is re-recorded (its bytes
// come back to the clean recording's) and the results equal the clean
// run's.
func TestSpillDecodableCorruptionIsReRecorded(t *testing.T) {
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
	first.Close()
	containers := spillGlob(t, dir)
	if len(containers) == 0 {
		t.Fatal("no spilled containers written")
	}
	clean := map[string][]byte{}
	for _, p := range containers {
		if clean[p], err = os.ReadFile(p); err != nil {
			t.Fatal(err)
		}
		flipWriteBit(t, p)
	}

	keepOnlyTraces(t, dir)
	second, err := NewEngine(EngineOptions{Workers: 4, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	res, err := second.CollectResults(o)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, res) {
		t.Fatal("results over decodable but corrupted containers diverge from the clean run")
	}
	for _, p := range containers {
		got, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, clean[p]) {
			t.Errorf("%s was not re-recorded", filepath.Base(p))
		}
	}
}

// TestReusedContainerExecutionsDoNotRecord: over a directory holding
// every container and no result entries, the record picks are served
// from the containers when the graph resolves, so the executions run
// without the recorder: the journal shows executions but no record job,
// and the containers stay untouched.
func TestReusedContainerExecutionsDoNotRecord(t *testing.T) {
	o := engineTestOptions()
	dir := t.TempDir()
	first, err := NewEngine(EngineOptions{Workers: 4, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := first.CollectResults(o); err != nil {
		t.Fatal(err)
	}
	first.Close()
	containers := spillGlob(t, dir)
	if len(containers) == 0 {
		t.Fatal("no spilled containers written")
	}
	stamps := map[string]int64{}
	for _, p := range containers {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		stamps[p] = fi.ModTime().UnixNano()
	}

	keepOnlyTraces(t, dir)
	second, err := NewEngine(EngineOptions{Workers: 4, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := second.CollectResults(o); err != nil {
		t.Fatal(err)
	}
	events := jobEvents(t, second.Journal().Path())
	if err := second.Close(); err != nil {
		t.Fatal(err)
	}
	if events["job.start exec"] == 0 {
		t.Fatal("the second run journalled no executions; the test tested nothing")
	}
	if n := events["job.start recordv2"]; n != 0 {
		t.Errorf("%d record jobs ran over stored containers, want 0", n)
	}
	for _, p := range containers {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		if fi.ModTime().UnixNano() != stamps[p] {
			t.Errorf("%s was rewritten", filepath.Base(p))
		}
	}
}

// jobEvents counts the job events of live runs' journals by event and
// job kind, the first word of the label: "job.start exec", "job.done
// recordv2". A clean Close removes a journal, so read it before.
func jobEvents(t *testing.T, journals ...string) map[string]int {
	t.Helper()
	counts := map[string]int{}
	for _, path := range journals {
		events, err := runner.ReadJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range events {
			if kind, _, ok := strings.Cut(ev.Label, " "); ok {
				counts[ev.Event+" "+kind]++
			}
		}
	}
	return counts
}
