package memsys

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// flatTrace builds the trace a v1 file holding events decodes to: a
// 64-byte home granularity, runs broken at processor changes and the
// reset markers as epoch boundaries.
func flatTrace(events []uint64, homes []int32) *Trace {
	var v1 bytes.Buffer
	for _, v := range []any{uint32(traceMagic), uint32(64), uint64(len(homes)), homes, uint64(len(events)), events} {
		if err := binary.Write(&v1, binary.LittleEndian, v); err != nil {
			panic(err)
		}
	}
	tr, err := ReadTrace(&v1)
	if err != nil {
		panic(err)
	}
	return tr
}

func buildTrace(seed int64, procs, events int) *Trace {
	rng := rand.New(rand.NewSource(seed))
	evs := make([]uint64, events)
	for i := range evs {
		evs[i] = traceEvent(rng.Intn(procs), Addr(rng.Intn(4096))&^7, rng.Intn(3) == 0)
	}
	homes := make([]int32, 64)
	for i := range homes {
		homes[i] = int32(i % procs)
	}
	return flatTrace(evs, homes)
}

func TestTraceRoundTripSerialization(t *testing.T) {
	tr := buildTrace(1, 4, 500)
	var buf bytes.Buffer
	n, err := tr.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	back, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != tr.Len() || back.homeLineSize != tr.homeLineSize {
		t.Fatalf("round trip mismatch: %d/%d events", back.Len(), tr.Len())
	}
	if !reflect.DeepEqual(collectEvents(t, tr), collectEvents(t, back)) {
		t.Fatal("round trip changed the event stream")
	}
	for i := range tr.homes {
		if tr.homes[i] != back.homes[i] {
			t.Fatalf("home %d differs", i)
		}
	}
}

func TestReadTraceRejectsGarbage(t *testing.T) {
	if _, err := ReadTrace(bytes.NewReader([]byte{1, 2, 3, 4, 5, 6, 7, 8})); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := ReadTrace(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input accepted")
	}
}

// Property: replaying a trace through a memory system produces exactly the
// same statistics as feeding the same accesses one by one from the map
// oracle.
func TestReplayEquivalenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		const procs = 4
		rng := rand.New(rand.NewSource(seed))
		var events []uint64
		homes := make([]int32, 64)
		for i := range homes {
			homes[i] = int32(i % procs)
		}
		cfg := Config{Procs: procs, CacheSize: 2048, Assoc: 2, LineSize: 64}
		sys, err := New(cfg, func(line uint64) int {
			if line < uint64(len(homes)) {
				return int(homes[line])
			}
			return 0
		})
		if err != nil {
			return false
		}
		direct := oracle(sys)
		for i := 0; i < 1200; i++ {
			p := rng.Intn(procs)
			a := Addr(rng.Intn(64*48)) &^ 7
			w := rng.Intn(3) == 0
			direct.Access(p, a, w)
			events = append(events, traceEvent(p, a, w))
			if i == 600 {
				direct.ResetStats()
				events = append(events, resetMarker)
			}
		}
		tr := flatTrace(events, homes)
		replayed, err := Replay(tr, cfg)
		if err != nil {
			return false
		}
		want := direct.Stats()
		if want.Traffic != replayed.Traffic {
			return false
		}
		for p := range want.Procs {
			if want.Procs[p] != replayed.Procs[p] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: a fused multi-configuration replay must be deep-equal,
// configuration by configuration, to independent per-config replays —
// across associativities, cache sizes and line sizes, with epoch resets
// and invalidation-heavy sharing in the stream.
func TestReplayMultiMatchesReplayProperty(t *testing.T) {
	cfgs := []Config{
		{Procs: 4, CacheSize: 2048, Assoc: 2, LineSize: 64},
		{Procs: 4, CacheSize: 2048, Assoc: 1, LineSize: 64},
		{Procs: 4, CacheSize: 4096, Assoc: FullyAssoc, LineSize: 64},
		{Procs: 4, CacheSize: 1024, Assoc: 4, LineSize: 16},
		{Procs: 4, CacheSize: 8192, Assoc: 2, LineSize: 256},
	}
	f := func(seed int64, withResets bool) bool {
		tr := buildSharingTrace(seed, 4, 2000, withResets)
		multi, err := ReplayMulti(tr, cfgs)
		if err != nil {
			t.Log(err)
			return false
		}
		for i, cfg := range cfgs {
			single, err := Replay(tr, cfg)
			if err != nil {
				t.Log(err)
				return false
			}
			if !reflect.DeepEqual(multi[i], single) {
				t.Logf("seed=%d cfg=%d: fused replay diverges:\nmulti:  %+v\nsingle: %+v", seed, i, multi[i], single)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestReplayMultiEmptyAndInvalid(t *testing.T) {
	tr := buildTrace(2, 4, 200)
	if out, err := ReplayMulti(tr, nil); err != nil || out != nil {
		t.Fatalf("empty config list: %v, %v", out, err)
	}
	_, err := ReplayMulti(tr, []Config{
		{Procs: 4, CacheSize: 2048, Assoc: 2, LineSize: 64},
		{Procs: 2, CacheSize: 2048, Assoc: 2, LineSize: 64},
	})
	if err == nil {
		t.Fatal("undersized machine accepted in fused sweep")
	}
}

func TestReplayAcrossLineSizes(t *testing.T) {
	tr := buildTrace(7, 4, 2000)
	var prevRefs uint64
	for _, ls := range []int{16, 64, 256} {
		st, err := Replay(tr, Config{Procs: 4, CacheSize: 4096, Assoc: 2, LineSize: ls})
		if err != nil {
			t.Fatal(err)
		}
		refs := st.Aggregate().Refs()
		if prevRefs != 0 && refs != prevRefs {
			t.Fatalf("reference count changed across line sizes: %d vs %d", refs, prevRefs)
		}
		prevRefs = refs
	}
}

func TestReplayRejectsTooFewProcs(t *testing.T) {
	tr := buildTrace(3, 8, 100)
	if _, err := Replay(tr, Config{Procs: 2, CacheSize: 2048, Assoc: 2, LineSize: 64}); err == nil {
		t.Fatal("trace with 8 processors replayed on 2")
	}
}

func TestTraceMaxProcSkipsMarkers(t *testing.T) {
	rec := NewRecorder(64)
	rec.RecordBatch(3, 0, []uint64{traceEvent(3, 0, false)})
	rec.RecordResetAt(1)
	tr := rec.Finish(nil)
	if got := tr.Meta().MaxProc; got != 3 {
		t.Fatalf("MaxProc=%d, want 3", got)
	}
}

func TestRecorderRejectsHugeProcIDs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for proc 127")
		}
	}()
	NewRecorder(64).RecordBatch(127, 0, []uint64{0})
}

// TestGeneratedTraceLiveMatchesReplay: on generated traces, a system
// fed reference by reference from a naive map of last writers (the
// oracle, independent of the Feed that live capture and replay share),
// Replay and one fused ReplayMulti give equal per-processor Stats and
// Traffic, at every associativity 1/2/4/8, line size 8/64/256 and with
// replacement hints on and off. The oracle-driven system's protocol
// invariants are checked after every batch.
func TestGeneratedTraceLiveMatchesReplay(t *testing.T) {
	const procs = 4
	var cfgs []Config
	for _, assoc := range []int{1, 2, 4, 8} {
		for _, ls := range []int{8, 64, 256} {
			for _, noHints := range []bool{false, true} {
				cfgs = append(cfgs, Config{Procs: procs, CacheSize: 16 * ls, Assoc: assoc, LineSize: ls,
					NoReplacementHints: noHints})
			}
		}
	}
	for seed := int64(1); seed <= 4; seed++ {
		// Batches as mach flushes them: one processor's run of references
		// over a hot shared region and its own private region, with a
		// measurement reset between two batches now and then. Each batch
		// is recorded in an epoch of its own, so the merged trace is the
		// batches' call order.
		rng := rand.New(rand.NewSource(seed))
		rec := NewRecorder(64)
		type batch struct {
			p      int
			events []uint64
			reset  bool
		}
		var batches []batch
		for refs, epoch := 0, uint64(1); refs < 3000; epoch++ {
			b := batch{p: rng.Intn(procs), reset: rng.Intn(40) == 0}
			if b.reset {
				rec.RecordResetAt(epoch)
			}
			for range 1 + rng.Intn(64) {
				a := Addr(rng.Intn(1024)) &^ 7
				if rng.Intn(2) == 0 {
					a = Addr(8192+b.p*4096+rng.Intn(4096)) &^ 7
				}
				b.events = append(b.events, traceEvent(b.p, a, rng.Intn(3) == 0))
			}
			rec.RecordBatch(b.p, epoch, append([]uint64(nil), b.events...))
			refs += len(b.events)
			batches = append(batches, b)
		}
		homes := make([]int32, 64)
		for i := range homes {
			homes[i] = int32(i % procs)
		}
		tr := rec.Finish(homes)

		multi, err := ReplayMulti(tr, cfgs)
		if err != nil {
			t.Fatal(err)
		}
		for i, cfg := range cfgs {
			what := fmt.Sprintf("seed %d, assoc %d, line %d, no hints %v", seed, cfg.Assoc, cfg.LineSize, cfg.NoReplacementHints)
			sys, err := New(cfg, tr.HomeFn(cfg.LineSize))
			if err != nil {
				t.Fatal(err)
			}
			live := oracle(sys)
			for j, b := range batches {
				if b.reset {
					live.ResetStats()
				}
				for _, e := range b.events {
					live.Access(b.p, Addr(e>>8), e&1 == 1)
				}
				if err := live.CheckInvariants(); err != nil {
					t.Fatalf("%s: after batch %d: %v", what, j, err)
				}
			}
			single, err := Replay(tr, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := live.Stats()
			for name, got := range map[string]Stats{"Replay": single, "ReplayMulti": multi[i]} {
				if !reflect.DeepEqual(got.Procs, want.Procs) || got.Traffic != want.Traffic {
					t.Fatalf("%s: %s diverges from the oracle-driven system:\n got %+v\nwant %+v", what, name, got, want)
				}
			}
		}
	}
}
