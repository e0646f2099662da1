package memsys

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
)

// writeV2Bytes serializes tr as a v2 container.
func writeV2Bytes(t testing.TB, tr *Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	n, err := tr.WriteV2(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteV2 reported %d bytes, wrote %d", n, buf.Len())
	}
	return buf.Bytes()
}

// openV2 wraps v2 bytes in a TraceFile.
func openV2(t testing.TB, data []byte) *TraceFile {
	t.Helper()
	tf, err := NewTraceFile(bytes.NewReader(data), int64(len(data)), nil)
	if err != nil {
		t.Fatal(err)
	}
	return tf
}

// buildBatchedTrace builds a trace through the lock-free batched path —
// the shape real recordings have: long per-processor epoch runs with
// mostly-sequential addresses.
func buildBatchedTrace(seed int64, procs, events, epochs int) *Trace {
	rng := rand.New(rand.NewSource(seed))
	rec := NewRecorder(64)
	perProc := events / epochs / procs
	for e := 0; e < epochs; e++ {
		if e > 0 {
			rec.RecordResetAt(uint64(e))
		}
		for p := 0; p < procs; p++ {
			batch := make([]uint64, 0, perProc)
			addr := uint64(p << 20)
			for i := 0; i < perProc; i++ {
				addr += uint64(rng.Intn(256)) &^ 7
				batch = append(batch, addr<<8|uint64(p)<<1|uint64(rng.Intn(2)))
			}
			rec.RecordBatch(p, uint64(e), batch)
		}
	}
	homes := make([]int32, 64)
	for i := range homes {
		homes[i] = int32(i % procs)
	}
	return rec.Finish(homes)
}

// TestWriteV2RoundTrip: encode → decode must reproduce the event
// stream, home map, block index and meta exactly — for both a recorded
// trace (blocks from the merge) and a flat trace (blocks in file order,
// as a v1 file's are).
func TestWriteV2RoundTrip(t *testing.T) {
	traces := []*Trace{
		buildBatchedTrace(11, 4, 24000, 3), // runs > v2BlockCap: blocks split
		buildSharingTrace(11, 4, 9000, true),
		buildSharingTrace(12, 4, 9000, false),
	}
	for i, tr := range traces {
		back, err := ReadTrace(bytes.NewReader(writeV2Bytes(t, tr)))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(collectEvents(t, tr), collectEvents(t, back)) {
			t.Fatalf("trace %d: v2 round trip changed the event stream", i)
		}
		if !reflect.DeepEqual(tr.homes, back.homes) || tr.homeLineSize != back.homeLineSize {
			t.Fatalf("trace %d: v2 round trip changed the home map", i)
		}
		if !reflect.DeepEqual(tr.Meta(), back.Meta()) {
			t.Fatalf("trace %d: v2 round trip changed the meta:\n got %+v\nwant %+v", i, back.Meta(), tr.Meta())
		}
		if !reflect.DeepEqual(tr.Index(), back.Index()) {
			t.Fatalf("trace %d: v2 round trip changed the block index", i)
		}
	}
}

// TestWriteV2RoundTripProperty extends the round trip over random
// traces, including the flat path (blocks in file order, not recorded)
// and a second v2 generation: v2 → v1 → v2 must be byte-identical.
func TestWriteV2RoundTripProperty(t *testing.T) {
	f := func(seed int64, resets bool) bool {
		tr := buildSharingTrace(seed, 4, 3000, resets)
		v2 := writeV2Bytes(t, tr)
		back, err := ReadTrace(bytes.NewReader(v2))
		if err != nil {
			t.Log(err)
			return false
		}
		if !reflect.DeepEqual(collectEvents(t, tr), collectEvents(t, back)) {
			return false
		}
		// Strip to a flat stream (v1 bytes) and regenerate: the file-order
		// encoding must reproduce the container byte for byte.
		var v1 bytes.Buffer
		if _, err := back.WriteTo(&v1); err != nil {
			t.Log(err)
			return false
		}
		flat, err := ReadTrace(bytes.NewReader(v1.Bytes()))
		if err != nil {
			t.Log(err)
			return false
		}
		return bytes.Equal(writeV2Bytes(t, flat), v2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestV2CompressesBelowHalfOfV1: on a reference stream with the
// recorder's per-processor run structure, the columnar container must
// be at least 2x smaller than the flat 8-bytes-per-event format.
func TestV2CompressesBelowHalfOfV1(t *testing.T) {
	tr := buildBatchedTrace(3, 8, 60000, 3)
	var v1 bytes.Buffer
	if _, err := tr.WriteTo(&v1); err != nil {
		t.Fatal(err)
	}
	v2 := writeV2Bytes(t, tr)
	if 2*len(v2) > v1.Len() {
		t.Fatalf("v2 container %d bytes, v1 %d: less than 2x smaller", len(v2), v1.Len())
	}
}

// TestTraceFileMatchesInMemory: ReplayMulti and StackDistances must
// produce identical results whether the trace's bytes are in memory or
// in a file, and the container loaded back through ReadTrace must
// serialize to the original's flat v1 bytes.
func TestTraceFileMatchesInMemory(t *testing.T) {
	tr := buildSharingTrace(5, 4, 9000, true)
	path := filepath.Join(t.TempDir(), "t.sp2t")
	if err := os.WriteFile(path, writeV2Bytes(t, tr), 0o644); err != nil {
		t.Fatal(err)
	}
	tf, err := OpenTraceFile(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer tf.Close()

	if !reflect.DeepEqual(tf.Meta(), tr.Meta()) {
		t.Fatalf("TraceFile meta %+v, in-memory %+v", tf.Meta(), tr.Meta())
	}
	if tf.Len() != tr.Len() {
		t.Fatalf("TraceFile length %d, in-memory %d", tf.Len(), tr.Len())
	}

	cfgs := []Config{
		{Procs: 4, CacheSize: 2048, Assoc: 2, LineSize: 64},
		{Procs: 4, CacheSize: 4096, Assoc: FullyAssoc, LineSize: 64},
		{Procs: 4, CacheSize: 8192, Assoc: 4, LineSize: 32},
	}
	memStats, err := ReplayMulti(tr, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	fileStats, err := ReplayMulti(tf, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(memStats, fileStats) {
		t.Fatal("streaming ReplayMulti diverges from in-memory")
	}

	memSD, err := StackDistances(tr, 64, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	fileSD, err := StackDistances(tf, 64, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(memSD, fileSD) {
		t.Fatal("streaming StackDistances diverges from in-memory")
	}

	loaded, err := ReadTrace(bytes.NewReader(writeV2Bytes(t, tr)))
	if err != nil {
		t.Fatal(err)
	}
	var memV1, fileV1 bytes.Buffer
	if _, err := tr.WriteTo(&memV1); err != nil {
		t.Fatal(err)
	}
	if _, err := loaded.WriteTo(&fileV1); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(memV1.Bytes(), fileV1.Bytes()) {
		t.Fatal("the loaded container's v1 bytes diverge from the in-memory trace's")
	}
}

// TestTraceFileDecodeBlockIndependence: decoding every block by index —
// no sequential pass — must reassemble the exact event stream, and the
// index must agree with the blocks.
func TestTraceFileDecodeBlockIndependence(t *testing.T) {
	tr := buildSharingTrace(9, 4, 9000, true)
	tf := openV2(t, writeV2Bytes(t, tr))

	index := tf.Index()
	var events []uint64
	// Decode in reverse order to prove independence from the prefix.
	rebuilt := make([][]uint64, len(index))
	for i := len(index) - 1; i >= 0; i-- {
		ev, err := tf.DecodeBlock(i)
		if err != nil {
			t.Fatalf("block %d: %v", i, err)
		}
		if len(ev) != index[i].Events {
			t.Fatalf("block %d decoded %d events, index says %d", i, len(ev), index[i].Events)
		}
		rebuilt[i] = ev
	}
	for _, ev := range rebuilt {
		events = append(events, ev...)
	}
	if !reflect.DeepEqual(events, collectEvents(t, tr)) {
		t.Fatal("block-wise decode does not reassemble the stream")
	}

	if _, err := tf.DecodeBlock(len(index)); err == nil {
		t.Fatal("out-of-range block index accepted")
	}
	if _, err := tf.DecodeBlock(-1); err == nil {
		t.Fatal("negative block index accepted")
	}
}

// TestTraceFileWindow: an epoch window, filtered here to one
// processor, must hold exactly that processor's references from those
// epochs, in stream order, and no reset marker.
func TestTraceFileWindow(t *testing.T) {
	// Epoch 0: procs 0 and 1; epoch 1 (after the marker): procs 0 and 2.
	tr := flatTrace([]uint64{
		traceEvent(0, 0x100, false),
		traceEvent(1, 0x200, true),
		traceEvent(0, 0x140, false),
		resetMarker,
		traceEvent(2, 0x300, false),
		traceEvent(0, 0x180, true),
	}, []int32{0, 1, 2, 3})
	tf := openV2(t, writeV2Bytes(t, tr))

	cases := []struct {
		proc      int
		lo, hi    uint64
		wantAddrs []Addr
	}{
		{proc: 0, lo: 0, hi: ^uint64(0), wantAddrs: []Addr{0x100, 0x140, 0x180}},
		{proc: 0, lo: 0, hi: 0, wantAddrs: []Addr{0x100, 0x140}},
		{proc: 0, lo: 1, hi: 1, wantAddrs: []Addr{0x180}},
		{proc: 1, lo: 0, hi: ^uint64(0), wantAddrs: []Addr{0x200}},
		{proc: 2, lo: 0, hi: 0, wantAddrs: nil},
		{proc: 3, lo: 0, hi: ^uint64(0), wantAddrs: nil},
	}
	for _, tc := range cases {
		w, err := EpochWindow(tf, tc.lo, tc.hi)
		if err != nil {
			t.Fatalf("EpochWindow(%d, %d): %v", tc.lo, tc.hi, err)
		}
		var got []Addr
		for _, e := range collectEvents(t, w) {
			if e == resetMarker {
				t.Fatalf("EpochWindow(%d, %d) contains a reset marker", tc.lo, tc.hi)
			}
			if p := int(e >> 1 & 0x7f); p == tc.proc {
				got = append(got, Addr(e>>8))
			}
		}
		if !reflect.DeepEqual(got, tc.wantAddrs) {
			t.Errorf("processor %d in EpochWindow(%d, %d) = %v, want %v", tc.proc, tc.lo, tc.hi, got, tc.wantAddrs)
		}
	}
}

// TestStreamingReplayPeakAllocation pins the out-of-core promise: total
// heap allocation during a TraceFile replay must be a small fraction of
// the trace's own in-memory footprint — O(block buffer), not O(trace).
func TestStreamingReplayPeakAllocation(t *testing.T) {
	// 48 yields of events in recorder-shaped per-processor runs over a
	// bounded address range (64 KB per processor), so the replay's
	// O(address space) tables and its O(yield) decode buffers stay far
	// below the trace's own 8-bytes-an-event footprint and any O(trace)
	// allocation stands out.
	rng := rand.New(rand.NewSource(42))
	rec := NewRecorder(64)
	const events = 48 * replayBlockSize
	const procs, epochs = 4, 4
	perProc := events / epochs / procs
	for e := 0; e < epochs; e++ {
		if e > 0 {
			rec.RecordResetAt(uint64(e))
		}
		for p := 0; p < procs; p++ {
			batch := make([]uint64, 0, perProc)
			for i := 0; i < perProc; i++ {
				addr := uint64(p)<<16 | uint64(rng.Intn(1<<16))&^7
				batch = append(batch, addr<<8|uint64(p)<<1|uint64(rng.Intn(2)))
			}
			rec.RecordBatch(p, uint64(e), batch)
		}
	}
	tr := rec.Finish(make([]int32, 64))
	data := writeV2Bytes(t, tr)
	tf := openV2(t, data)
	cfg := []Config{{Procs: 4, CacheSize: 2048, Assoc: 2, LineSize: 64}}

	// Warm up once (lazy pools, machine construction paths), then
	// measure the cumulative allocation of a full streaming replay.
	if _, err := ReplayMulti(tf, cfg); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := ReplayMulti(tf, cfg); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)

	allocated := after.TotalAlloc - before.TotalAlloc
	traceBytes := uint64(events * 8)
	if allocated > traceBytes/4 {
		t.Fatalf("streaming replay allocated %d bytes for a %d-byte trace; not O(block buffer)", allocated, traceBytes)
	}

	// The decode-ahead pipeline must not change the scaling: replaying a
	// trace twice as long (same address range, same machine) allocates
	// essentially the same amount — the buffer pool is bounded by the
	// decode-ahead depth, not by trace length.
	rec2 := NewRecorder(64)
	for e := 0; e < epochs; e++ {
		if e > 0 {
			rec2.RecordResetAt(uint64(e))
		}
		for p := 0; p < procs; p++ {
			batch := make([]uint64, 0, 2*perProc)
			for i := 0; i < 2*perProc; i++ {
				addr := uint64(p)<<16 | uint64(rng.Intn(1<<16))&^7
				batch = append(batch, addr<<8|uint64(p)<<1|uint64(rng.Intn(2)))
			}
			rec2.RecordBatch(p, uint64(e), batch)
		}
	}
	tf2 := openV2(t, writeV2Bytes(t, rec2.Finish(make([]int32, 64))))
	if _, err := ReplayMulti(tf2, cfg); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := ReplayMulti(tf2, cfg); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	allocated2 := after.TotalAlloc - before.TotalAlloc
	if allocated2 > allocated+allocated/2 {
		t.Fatalf("doubling the trace grew replay allocation %d -> %d bytes; decode buffers not bounded by depth", allocated, allocated2)
	}
}

// TestStreamingDecodeAheadByteIdentical: the decode-ahead pipeline
// behind TraceFile.blocks must deliver the exact event sequence of a
// serial block-by-block decode — same events, same order, markers
// included — and propagate an early consumer exit without deadlock.
func TestStreamingDecodeAheadByteIdentical(t *testing.T) {
	tr := buildSharingTrace(11, 4, (decodeAhead+1)*replayBlockSize, true)
	tf := openV2(t, writeV2Bytes(t, tr))
	if tf.Len() <= decodeAhead*replayBlockSize {
		t.Fatalf("trace has %d events; need more yields than the decode-ahead depth %d", tf.Len(), decodeAhead)
	}
	var want []uint64
	for i := range tf.index {
		evs, err := tf.DecodeBlock(i)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, evs...)
	}
	var got []uint64
	if err := tf.blocks(func(events []uint64) error {
		got = append(got, events...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("pipeline delivered %d events, serial decode %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("event %d: pipeline %#x != serial %#x", i, got[i], want[i])
		}
	}

	// Early exit: a yield error must surface unchanged, leaving no
	// goroutine blocked (the race detector and -timeout would catch a
	// stuck decoder in CI).
	sentinel := errors.New("stop after first block")
	calls := 0
	if err := tf.blocks(func([]uint64) error {
		calls++
		return sentinel
	}); !errors.Is(err, sentinel) {
		t.Fatalf("yield error %v surfaced as %v", sentinel, err)
	}
	if calls != 1 {
		t.Fatalf("yield called %d times after erroring on the first", calls)
	}
}

// TestConcurrentPassesShareOneTrace: the working-set and line-size
// sweeps run ReplayMulti, SetAssocSweep and StackDistances at once over
// one memoized in-memory recording. Each pass decodes the shared bytes
// with buffers of its own, so concurrent passes must equal serial ones
// (run under -race, this also checks they share no mutable state).
func TestConcurrentPassesShareOneTrace(t *testing.T) {
	tr := buildBatchedTrace(21, 4, 40000, 3)
	cfgs := []Config{
		{Procs: 4, CacheSize: 2048, Assoc: 2, LineSize: 64},
		{Procs: 4, CacheSize: 8192, Assoc: FullyAssoc, LineSize: 64},
		{Procs: 4, CacheSize: 4096, Assoc: 4, LineSize: 32},
	}
	sizes := []int{1 << 10, 4 << 10, 16 << 10}
	passes := []func() (any, error){
		func() (any, error) { return ReplayMulti(tr, cfgs) },
		func() (any, error) { return SetAssocSweep(tr, 64, 2, sizes) },
		func() (any, error) { return StackDistances(tr, 64, 16<<10) },
	}
	want := make([]any, len(passes))
	for i, pass := range passes {
		var err error
		if want[i], err = pass(); err != nil {
			t.Fatal(err)
		}
	}
	const copies = 2
	var wg sync.WaitGroup
	for i, pass := range passes {
		for range copies {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got, err := pass()
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(got, want[i]) {
					t.Errorf("pass %d run concurrently differs from its serial run", i)
				}
			}()
		}
	}
	wg.Wait()
}
