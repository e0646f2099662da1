package memsys

import (
	"bytes"
	"reflect"
	"strconv"
	"testing"

	"splash2/internal/fault"
)

// collectEvents drains a source's block stream into one flat slice.
func collectEvents(t testing.TB, src TraceSource) []uint64 {
	t.Helper()
	var out []uint64
	if err := src.blocks(func(events []uint64) error {
		out = append(out, events...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// spanWindow is EpochWindow's test oracle: the marker-free events of
// the epochs [lo, hi], decoded block by block from the index of the
// trace ReadTrace loads from the same container.
func spanWindow(t *testing.T, tr *Trace, lo, hi uint64) []uint64 {
	var out []uint64
	for i, b := range tr.Index() {
		if !b.Marker && b.Epoch >= lo && b.Epoch <= hi {
			events, err := tr.DecodeBlock(i)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, events...)
		}
	}
	return out
}

// TestEpochWindowEquivalence: the streaming epoch window must yield
// exactly the marker-free events the span oracle selects, with matching
// metadata, over traces from both recorder paths.
func TestEpochWindowEquivalence(t *testing.T) {
	traces := map[string]*Trace{
		"flat":    buildSharingTrace(9, 4, 20000, true), // spans derived, as from a v1 file
		"batched": buildBatchedTrace(10, 4, 20000, 4),   // spans recorded
	}
	for name, tr := range traces {
		data := writeV2Bytes(t, tr)
		tf := openV2(t, data)
		loaded, err := ReadTrace(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		epochs := tr.Meta().Markers + 1
		for _, rng := range [][2]uint64{{0, 0}, {1, 1}, {0, ^uint64(0)}, {1, 2}, {epochs, epochs + 3}} {
			win, err := EpochWindow(tf, rng[0], rng[1])
			if err != nil {
				t.Fatal(err)
			}
			want := spanWindow(t, loaded, rng[0], rng[1])
			got := collectEvents(t, win)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s window %v: streaming view yields %d events, span oracle %d (or order differs)",
					name, rng, len(got), len(want))
			}
			for _, e := range got {
				if e == resetMarker {
					t.Fatalf("%s window %v contains a reset marker", name, rng)
				}
			}
			if n := win.Meta().Refs; n != uint64(len(want)) {
				t.Fatalf("%s window %v: meta says %d refs, stream has %d", name, rng, n, len(want))
			}
			if rng[0] >= epochs && len(got) != 0 {
				t.Fatalf("%s window %v beyond last epoch yields %d events", name, rng, len(got))
			}
		}
	}
}

// TestEpochWindowSkipsBlocks: a streaming window must never read an
// out-of-range block — enforced by arming a read fault on every block
// outside the window, which would fail the replay if touched.
func TestEpochWindowSkipsBlocks(t *testing.T) {
	tr := buildBatchedTrace(5, 4, 30000, 4)
	data := writeV2Bytes(t, tr)
	plain := openV2(t, data)
	const lo, hi = 1, 2
	var rules []fault.Rule
	for i, info := range plain.Index() {
		if info.Marker || info.Epoch < lo || info.Epoch > hi {
			rules = append(rules, fault.Rule{Pattern: "trace.read.block:" + strconv.Itoa(i), Action: fault.Error})
		}
	}
	if len(rules) == 0 {
		t.Fatal("no out-of-range blocks; test trace too small")
	}
	armed, err := NewTraceFile(bytes.NewReader(data), int64(len(data)), fault.New(1, rules...))
	if err != nil {
		t.Fatal(err)
	}
	win, err := EpochWindow(armed, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	got := collectEvents(t, win)
	wantWin, err := EpochWindow(plain, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	if want := collectEvents(t, wantWin); !reflect.DeepEqual(got, want) {
		t.Fatalf("armed window replayed %d events, want %d", len(got), len(want))
	}
}

// TestEpochWindowValidation: an inverted range is rejected. (A window
// of a window no longer compiles: EpochWindow takes a *TraceFile.)
func TestEpochWindowValidation(t *testing.T) {
	tf := openV2(t, writeV2Bytes(t, buildSharingTrace(1, 2, 500, false)))
	if _, err := EpochWindow(tf, 3, 2); err == nil {
		t.Fatal("inverted epoch range accepted")
	}
}
