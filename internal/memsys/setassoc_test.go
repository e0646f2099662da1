package memsys

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// checkSetAssocAgainstReplay holds a set-associative profile to
// ReplayMulti's statistics at the same sizes: per-processor miss counts,
// reference counts, and the aggregate miss rate bit for bit.
func checkSetAssocAgainstReplay(t *testing.T, what string, sp *SetAssocProfile, sizes []int, stats []Stats) {
	t.Helper()
	for i, cs := range sizes {
		st := stats[i]
		if refs := st.Aggregate().Refs(); sp.Refs() != refs {
			t.Errorf("%s cs=%d: refs %d, replay %d", what, cs, sp.Refs(), refs)
		}
		for p := range st.Procs {
			want := st.Procs[p].TotalMisses()
			if p >= sp.Procs() {
				if want != 0 {
					t.Errorf("%s cs=%d proc=%d: replay counts %d misses for a processor the trace never names", what, cs, p, want)
				}
				continue
			}
			got, err := sp.ProcMisses(p, cs)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("%s cs=%d proc=%d: sweep %d misses, replay %d", what, cs, p, got, want)
			}
		}
		got, err := sp.MissRate(cs)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(st.MissRate()) {
			t.Errorf("%s cs=%d: sweep rate %v not bit-identical to replay %v", what, cs, got, st.MissRate())
		}
	}
}

// TestSetAssocSweepMatchesReplayMulti referees the one-pass sweep against
// ReplayMulti on generated traces (the generator of
// TestSampledDifferentialGeneratedTraces: 1–8 processors, a hot shared
// region plus private regions, optional reset markers) at line sizes
// 16/64/256 and associativities 1/2/4/8, over shuffled size lists that
// repeat a size, with replacement hints on and off, from memory and
// through a TraceFile.
func TestSetAssocSweepMatchesReplayMulti(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		procs := 1 + rng.Intn(8)
		ls := []int{16, 64, 256}[rng.Intn(3)]
		tr := buildSharingTrace(seed, procs, 1500+rng.Intn(2500), rng.Intn(2) == 0)
		for _, src := range []TraceSource{tr, openV2(t, writeV2Bytes(t, tr))} {
			for _, assoc := range []int{1, 2, 4, 8} {
				// A random subset of the power-of-two sizes from one set up
				// to 512 lines (which holds everything), so the largest
				// profiled size thrashes in some lists and not in others.
				var sizes []int
				for cs := ls * assoc; cs <= 512*ls; cs <<= 1 {
					if rng.Intn(2) == 0 {
						sizes = append(sizes, cs)
					}
				}
				if len(sizes) == 0 {
					sizes = append(sizes, ls*assoc)
				}
				sizes = append(sizes, sizes[rng.Intn(len(sizes))])
				rng.Shuffle(len(sizes), func(i, j int) { sizes[i], sizes[j] = sizes[j], sizes[i] })
				sp, err := SetAssocSweep(src, ls, assoc, sizes)
				if err != nil {
					t.Fatal(err)
				}
				for _, noHints := range []bool{false, true} {
					cfgs := make([]Config, len(sizes))
					for i, cs := range sizes {
						cfgs[i] = Config{Procs: procs, CacheSize: cs, Assoc: assoc, LineSize: ls, OverheadBytes: 8, NoReplacementHints: noHints}
					}
					stats, err := ReplayMulti(src, cfgs)
					if err != nil {
						t.Fatal(err)
					}
					what := fmt.Sprintf("seed=%d procs=%d ls=%d assoc=%d noHints=%v src=%T", seed, procs, ls, assoc, noHints, src)
					checkSetAssocAgainstReplay(t, what, sp, sizes, stats)
				}
			}
		}
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// lyingFooterV2 re-encodes a v2 container with its index footer built
// from a doctored stream summary: the blocks are untouched, so the
// footer parses but no longer bounds what they hold.
func lyingFooterV2(t *testing.T, good []byte, doctor func(*TraceMeta)) []byte {
	t.Helper()
	tf := openV2(t, good)
	meta := tf.Meta()
	doctor(&meta)
	blocks := make([]v2Block, len(tf.index))
	for i, b := range tf.index {
		blocks[i] = v2Block{marker: b.Marker, proc: b.Proc, epoch: b.Epoch, events: b.Events, size: b.Size}
	}
	out := append([]byte(nil), good[:tf.footerOff]...)
	footer := appendV2Footer(nil, tf.index[0].Offset, meta, blocks)
	out = append(out, footer...)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(footer)))
	return binary.LittleEndian.AppendUint32(out, traceIndexMagic)
}

// TestSetAssocSweepUnderstatedRanges: on the hardening container with a
// summary that understates the addresses or processors the blocks use,
// the sweep fails with ReplayMulti's error, word for word, and never
// panics. The footer parser already rejects an understated processor
// count, so that case doctors the opened file's summary directly.
func TestSetAssocSweepUnderstatedRanges(t *testing.T) {
	good := hardeningTraceV2(t)
	lowAddr := openV2(t, lyingFooterV2(t, good, func(m *TraceMeta) { m.MaxAddr = 0x1000 }))
	lowProc := openV2(t, good)
	lowProc.meta.MaxProc = 0
	for _, tf := range []*TraceFile{lowAddr, lowProc} {
		_, want := ReplayMulti(tf, []Config{{Procs: 4, CacheSize: 2048, Assoc: 2, LineSize: 64}})
		if want == nil {
			t.Fatalf("meta %+v: ReplayMulti accepted an understated range", tf.Meta())
		}
		_, got := SetAssocSweep(tf, 64, 2, []int{2048, 256})
		if got == nil || got.Error() != want.Error() {
			t.Errorf("meta %+v: sweep error %v, ReplayMulti's %v", tf.Meta(), got, want)
		}
	}
}

// TestSetAssocSweepValidation: a size whose lines do not divide into
// assoc ways fails with Config.Validate's error; a fully-associative
// request, a non-power-of-two set count and an unprofiled query fail
// too; an empty trace profiles to zero.
func TestSetAssocSweepValidation(t *testing.T) {
	tr := buildSharingTrace(1, 2, 200, false)
	want := Config{Procs: 2, CacheSize: 256, Assoc: 8, LineSize: 64, OverheadBytes: 8}.Validate()
	if want == nil {
		t.Fatal("Config.Validate accepted 4 lines in 8-way sets")
	}
	if _, err := SetAssocSweep(tr, 64, 8, []int{4096, 256}); err == nil || err.Error() != want.Error() {
		t.Fatalf("indivisible size: error %v, want Config.Validate's %v", err, want)
	}
	if _, err := SetAssocSweep(tr, 48, 1, []int{4800}); err == nil {
		t.Fatal("non-power-of-two line size accepted")
	}
	if _, err := SetAssocSweep(tr, 64, FullyAssoc, []int{4096}); err == nil {
		t.Fatal("fully-associative request accepted")
	}
	if _, err := SetAssocSweep(tr, 64, 1, []int{3 << 10}); err == nil {
		t.Fatal("48-set cache accepted")
	}
	sp, err := SetAssocSweep(tr, 64, 2, []int{1 << 10, 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if sp.LineSize() != 64 || sp.MaxCacheSize() != 4<<10 {
		t.Fatalf("profile reports line %d max %d", sp.LineSize(), sp.MaxCacheSize())
	}
	if _, err := sp.MissRate(2 << 10); err == nil {
		t.Fatal("query of an unprofiled size accepted")
	}

	empty := NewRecorder(64).Finish(make([]int32, 4))
	sp, err = SetAssocSweep(empty, 64, 4, []int{1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if mr, err := sp.MissRate(1 << 10); err != nil || mr != 0 || sp.Refs() != 0 {
		t.Fatalf("empty trace: rate %v refs %d err %v", mr, sp.Refs(), err)
	}
}
