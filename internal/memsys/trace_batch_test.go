package memsys

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// recProcLimit pins the satellite fix: ids 0..126 are accepted, id 127
// (the reset marker) and negatives panic, and the panic message agrees
// with the enforced limit.
func TestRecorderProcLimit(t *testing.T) {
	rec := NewRecorder(64)
	rec.RecordBatch(0, 0, []uint64{traceEvent(0, 8, false)})
	rec.RecordBatch(126, 0, []uint64{traceEvent(126, 16, true)}) // highest legal id
	if got := rec.Finish(nil).Meta().MaxProc; got != 126 {
		t.Fatalf("MaxProc=%d, want 126", got)
	}
	for _, proc := range []int{127, 128, -1} {
		proc := proc
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("no panic for proc %d", proc)
				}
				msg, ok := r.(string)
				if !ok {
					t.Fatalf("panic value %T, want string", r)
				}
				if !strings.Contains(msg, "at most 127 processors (ids 0-126") {
					t.Fatalf("panic message %q does not state the real limit", msg)
				}
			}()
			NewRecorder(64).RecordBatch(proc, 0, []uint64{0})
		}()
	}
}

// serialize renders a trace to bytes for equality comparison.
func serialize(t *testing.T, tr *Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// The merge must depend only on (epoch, proc, local index) — never on
// the real-time order RecordBatch calls arrived in.
func TestRecordBatchMergeIsScheduleIndependent(t *testing.T) {
	type batch struct {
		proc   int
		epoch  uint64
		events []uint64
	}
	batches := []batch{
		{0, 1, []uint64{traceEvent(0, 64, false), traceEvent(0, 72, true)}},
		{1, 1, []uint64{traceEvent(1, 128, false)}},
		{0, 2, []uint64{traceEvent(0, 80, false)}},
		{2, 2, []uint64{traceEvent(2, 256, true), traceEvent(2, 264, false)}},
		{1, 3, []uint64{traceEvent(1, 136, true)}},
	}
	record := func(order []int) *Trace {
		rec := NewRecorder(64)
		rec.RecordResetAt(2) // between epochs 1 and 2
		for _, i := range order {
			b := batches[i]
			rec.RecordBatch(b.proc, b.epoch, b.events)
		}
		return rec.Finish(nil)
	}
	want := serialize(t, record([]int{0, 1, 2, 3, 4}))
	for _, order := range [][]int{
		{4, 3, 2, 1, 0},
		{1, 4, 0, 3, 2},
		{3, 0, 4, 1, 2},
	} {
		if got := serialize(t, record(order)); !bytes.Equal(got, want) {
			t.Fatalf("merge differs for arrival order %v", order)
		}
	}
}

// Within one epoch the merge orders by processor id, and a reset marker
// at epoch E precedes every event of epoch E.
func TestRecordBatchMergeOrder(t *testing.T) {
	rec := NewRecorder(64)
	e0, e1, e2 := traceEvent(0, 8, false), traceEvent(1, 16, false), traceEvent(2, 24, true)
	rec.RecordBatch(2, 1, []uint64{e2})
	rec.RecordBatch(0, 1, []uint64{e0})
	rec.RecordBatch(1, 1, []uint64{e1})
	rec.RecordResetAt(1)
	got := collectEvents(t, rec.Finish(nil))
	want := []uint64{resetMarker, e0, e1, e2}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got events %#x, want %#x", got, want)
	}
}

// Multiple buffer-full flushes of one processor inside a single epoch
// must keep their append order (the processor's program order).
func TestRecordBatchSameEpochRunsKeepOrder(t *testing.T) {
	rec := NewRecorder(64)
	a := traceEvent(0, 8, false)
	b := traceEvent(0, 16, true)
	c := traceEvent(0, 24, false)
	rec.RecordBatch(0, 5, []uint64{a})
	rec.RecordBatch(0, 5, []uint64{b, c})
	got := collectEvents(t, rec.Finish(nil))
	if want := []uint64{a, b, c}; !reflect.DeepEqual(got, want) {
		t.Fatalf("got events %#x, want %#x", got, want)
	}
}

// A Feed batch must produce exactly the statistics of the same
// references fed one by one from the map oracle, hotspot windows
// included (both see the same requestor clocks).
func TestFeedBatchMatchesOracle(t *testing.T) {
	cfg := Config{Procs: 4, CacheSize: 1024, Assoc: 2, LineSize: 64}
	mk := func() *System {
		s, err := New(cfg, func(line uint64) int { return int(line % 3) })
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	// A per-processor access schedule with sharing and write-backs.
	perProc := make([][]uint64, 4)
	times := make([][]uint64, 4)
	for p := 0; p < 4; p++ {
		var now uint64
		for i := 0; i < 200; i++ {
			a := Addr((i*13+p*5)%97) * WordBytes
			w := (i+p)%3 == 0
			now += uint64(p + i%7 + 1)
			perProc[p] = append(perProc[p], traceEvent(p, a, w))
			times[p] = append(times[p], now)
		}
	}
	// Two global orders: each processor's run in batches of 50, and a
	// round-robin interleave in batches of one.
	for _, batch := range []int{50, 1} {
		ref := oracle(mk())
		f := NewFeed(cfg.Procs - 1)
		f.Add(mk())
		feedRun := func(p, lo int) {
			if err := f.Batch(perProc[p][lo:lo+batch], times[p][lo:lo+batch]); err != nil {
				t.Fatal(err)
			}
			for i := lo; i < lo+batch; i++ {
				e := perProc[p][i]
				ref.AccessAt(p, Addr(e>>8), e&1 == 1, times[p][i])
			}
		}
		if batch == 1 {
			for i := 0; i < 200; i++ {
				for p := 0; p < 4; p++ {
					feedRun(p, i)
				}
			}
		} else {
			for p := 0; p < 4; p++ {
				for lo := 0; lo < 200; lo += batch {
					feedRun(p, lo)
				}
			}
		}
		fed := f.Systems()[0]
		if err := fed.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if got, want := fed.Stats(), ref.Stats(); !reflect.DeepEqual(got, want) {
			t.Fatalf("batches of %d: feed diverges from the oracle\n got %+v\nwant %+v", batch, got, want)
		}
	}
}
