package memsys

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"
)

// sampledFingerprint flattens every queryable output of a profile —
// per-proc estimates, totals, rates, bands — so determinism tests can
// compare runs bit for bit.
func sampledFingerprint(t *testing.T, sp *SampledProfile, sizes []int) []uint64 {
	t.Helper()
	var out []uint64
	out = append(out, math.Float64bits(sp.Rate()), sp.Refs(), sp.SampledRefs())
	for _, cs := range sizes {
		for p := 0; p < sp.Procs(); p++ {
			m, err := sp.EstProcMisses(p, cs)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, math.Float64bits(m))
		}
		mr, err := sp.EstMissRate(cs)
		if err != nil {
			t.Fatal(err)
		}
		lo, hi, err := sp.Band(cs)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, math.Float64bits(mr), math.Float64bits(lo), math.Float64bits(hi))
	}
	return out
}

// replayFullyAssoc is the independent oracle for both profile types: a
// fully-associative LRU coherence simulation at one cache size.
func replayFullyAssoc(t *testing.T, src TraceSource, procs, lineSize, cacheSize int) Stats {
	t.Helper()
	st, err := Replay(src, Config{Procs: procs, CacheSize: cacheSize, Assoc: FullyAssoc, LineSize: lineSize})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// checkAgainstReplay holds a sampled profile's answers at one cache
// size to fully-associative Replay: per-processor miss counts, the
// aggregate miss rate bit for bit, and a zero-width band. Only valid
// where the profile claims exactness (rate 1, or a window-covered
// capacity).
func checkAgainstReplay(t *testing.T, what string, sp *SampledProfile, st Stats, cs int) {
	t.Helper()
	for p := 0; p < sp.Procs(); p++ {
		got, err := sp.EstProcMisses(p, cs)
		if err != nil {
			t.Fatal(err)
		}
		if want := st.Procs[p].TotalMisses(); got != float64(want) {
			t.Errorf("%s cs=%d proc=%d: est %v != replay %d", what, cs, p, got, want)
		}
	}
	gotRate, err := sp.EstMissRate(cs)
	if err != nil {
		t.Fatal(err)
	}
	if wantRate := st.MissRate(); math.Float64bits(gotRate) != math.Float64bits(wantRate) {
		t.Errorf("%s cs=%d: est rate %v not bit-identical to replay %v", what, cs, gotRate, wantRate)
	}
	lo, hi, err := sp.Band(cs)
	if err != nil {
		t.Fatal(err)
	}
	if lo != gotRate || hi != gotRate {
		t.Errorf("%s cs=%d: exact answer has band [%v, %v] around %v", what, cs, lo, hi, gotRate)
	}
}

// TestSampledRateOneBitIdentical: at sampling rate 1 the sampled pass
// must reproduce fully-associative Replay bit for bit — per-processor
// miss counts, aggregate miss rates, reference counts — with zero-width
// confidence bands, on traces with invalidations and epoch resets.
// (StackDistances is the same pass, so Replay is the referee.)
func TestSampledRateOneBitIdentical(t *testing.T) {
	const procs = 4
	for _, resets := range []bool{false, true} {
		for _, exactLines := range []int{0, 64} {
			tr := buildSharingTrace(7, procs, 5000, resets)
			sp, err := SampledStackDistances(tr, 64, stackSizes[len(stackSizes)-1], SampledOptions{Rate: 1, Seed: 42, ExactLines: exactLines})
			if err != nil {
				t.Fatal(err)
			}
			if !sp.Exact() {
				t.Fatal("rate-1 profile not flagged exact")
			}
			if sp.Rate() != 1 {
				t.Fatalf("rate-1 profile reports rate %v", sp.Rate())
			}
			what := fmt.Sprintf("resets=%v window=%d", resets, exactLines)
			for _, cs := range stackSizes {
				st := replayFullyAssoc(t, tr, procs, 64, cs)
				if refs := st.Aggregate().Refs(); sp.Refs() != refs || sp.SampledRefs() != refs {
					t.Fatalf("%s: refs %d sampled %d, replay %d", what, sp.Refs(), sp.SampledRefs(), refs)
				}
				checkAgainstReplay(t, what, sp, st, cs)
			}
		}
	}
}

// TestSampledDeterministicAcrossGOMAXPROCS: a fixed seed must produce a
// byte-identical profile across repeated runs and GOMAXPROCS settings.
func TestSampledDeterministicAcrossGOMAXPROCS(t *testing.T) {
	tr := buildSharingTrace(21, 4, 6000, true)
	run := func() []uint64 {
		sp, err := SampledStackDistances(tr, 64, 1<<20, SampledOptions{Rate: 0.25, Seed: 5, ExactLines: 64})
		if err != nil {
			t.Fatal(err)
		}
		return sampledFingerprint(t, sp, stackSizes)
	}
	want := run()
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	for _, gmp := range []int{1, 2, old} {
		runtime.GOMAXPROCS(gmp)
		for i := 0; i < 2; i++ {
			got := run()
			if len(got) != len(want) {
				t.Fatalf("GOMAXPROCS=%d: fingerprint length %d != %d", gmp, len(got), len(want))
			}
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("GOMAXPROCS=%d: fingerprint word %d differs", gmp, j)
				}
			}
		}
	}
}

// TestSampledShardsMatchOneWorker: the processor-sharded pass must leave
// every part of the profile — per-processor counts, strata, window
// histograms, the whole-window flag and the sampled-reference count —
// exactly as one worker does, for shard counts that split 8 processors
// evenly and unevenly, over more than one yield with reset markers. At
// 8-byte lines the windows overflow.
func TestSampledShardsMatchOneWorker(t *testing.T) {
	tr := buildSharingTrace(31, 8, replayBlockSize+replayBlockSize/8, true)
	cases := []struct {
		name     string
		lineSize int
		opt      SampledOptions
	}{
		{"rate1", 64, SampledOptions{Rate: 1}},
		{"rate0.01+window", 8, SampledOptions{Rate: 0.01, Seed: 3, ExactLines: DefaultExactLines}},
	}
	for _, tc := range cases {
		want, err := sampledPass(tr, tc.lineSize, 1<<20, tc.opt, 1)
		if err != nil {
			t.Fatal(err)
		}
		if want.SampledRefs() == 0 || (tc.opt.ExactLines > 0 && want.windowWhole) {
			t.Fatalf("%s: trace too small to exercise the pass (sampled %d, whole window %v)", tc.name, want.SampledRefs(), want.windowWhole)
		}
		for _, w := range []int{2, 3, 5, 8} {
			got, err := sampledPass(tr, tc.lineSize, 1<<20, tc.opt, w)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: %d shards differ from one worker", tc.name, w)
			}
		}
	}
}

// pinnedCacheSizes are core.DefaultCacheSizes, the paper's 1 KB–1 MB
// sweep points (memsys cannot import core).
var pinnedCacheSizes = []int{1 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10, 32 << 10, 64 << 10, 128 << 10, 256 << 10, 512 << 10, 1 << 20}

// buildWideTrace is a shared-memory trace whose reuse distances spread
// over the whole 1 KB–1 MB sweep at 8-byte lines: half the references
// go to a small shared region (invalidations), half to a processor's
// private 256 KB region under a power-law, so most reuse is near and
// some is deep. A reset marker falls after each third of the events.
func buildWideTrace(seed int64, procs, events int) *Trace {
	rng := rand.New(rand.NewSource(seed))
	var evs []uint64
	for i := 0; i < events; i++ {
		p := rng.Intn(procs)
		var a Addr
		if rng.Intn(2) == 0 {
			a = Addr(rng.Intn(4096)) &^ 7
		} else {
			u := rng.Float64()
			a = Addr(1<<16+p<<18) + Addr(u*u*u*u*(1<<18))&^7
		}
		evs = append(evs, traceEvent(p, a, rng.Intn(3) == 0))
		if i > 0 && i%(events/3+1) == 0 {
			evs = append(evs, resetMarker)
		}
	}
	homes := make([]int32, 64)
	for i := range homes {
		homes[i] = int32(i % procs)
	}
	return flatTrace(evs, homes)
}

// TestSampledEstimatesPinned pins every sampled-profile answer the
// working-set figures read — EstMisses, EstProcMisses, EstMissRate and
// Band at each sweep point — at 8-byte lines, two seeds, with and
// without the exact window, over a generated 8-processor trace with
// reset markers. The digests were taken from the pass that histogrammed
// in the estimated-distance domain; any change of layout must keep the
// answers bit for bit.
func TestSampledEstimatesPinned(t *testing.T) {
	tr := buildWideTrace(17, 8, 48000)
	cases := []struct {
		opt  SampledOptions
		want string
	}{
		{SampledOptions{Rate: 0.01, Seed: 1, ExactLines: 64}, "7bada60aa1b130f8"},
		{SampledOptions{Rate: 0.01, Seed: 2, ExactLines: 64}, "f681b3f63bf7ace8"},
		{SampledOptions{Rate: 0.1, Seed: 1}, "1b04d16874892796"},
		{SampledOptions{Rate: 0.1, Seed: 2}, "731949dc401748f8"},
	}
	for _, tc := range cases {
		sp, err := SampledStackDistances(tr, 8, 1<<20, tc.opt)
		if err != nil {
			t.Fatal(err)
		}
		if sp.windowWhole {
			t.Fatalf("%+v: every stack fitted its window, so the sampled estimate is never read", tc.opt)
		}
		words := sampledFingerprint(t, sp, pinnedCacheSizes)
		for _, cs := range pinnedCacheSizes {
			m, err := sp.EstMisses(cs)
			if err != nil {
				t.Fatal(err)
			}
			words = append(words, math.Float64bits(m))
		}
		h := sha256.New()
		for _, w := range words {
			binary.Write(h, binary.LittleEndian, w)
		}
		if got := hex.EncodeToString(h.Sum(nil))[:16]; got != tc.want {
			t.Errorf("%+v: answers digest to %s, want %s", tc.opt, got, tc.want)
		}
	}
}

// TestSampledDegenerateInputs: empty and single-processor traces.
func TestSampledDegenerateInputs(t *testing.T) {
	empty := NewRecorder(64).Finish(make([]int32, 4))
	sp, err := SampledStackDistances(empty, 64, 1<<16, SampledOptions{Rate: 0.5, Seed: 1, ExactLines: DefaultExactLines})
	if err != nil {
		t.Fatal(err)
	}
	if sp.Refs() != 0 || sp.SampledRefs() != 0 {
		t.Fatalf("empty trace: refs %d sampled %d", sp.Refs(), sp.SampledRefs())
	}
	mr, err := sp.EstMissRate(1 << 10)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi, err := sp.Band(1 << 10)
	if err != nil {
		t.Fatal(err)
	}
	if mr != 0 || lo != 0 || hi != 0 {
		t.Fatalf("empty trace: rate %v band [%v, %v]", mr, lo, hi)
	}

	single := buildSharingTrace(13, 1, 3000, false)
	exact, err := StackDistances(single, 64, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	sp, err = SampledStackDistances(single, 64, 1<<20, SampledOptions{Rate: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if sp.Procs() != 1 {
		t.Fatalf("single-proc trace: %d procs", sp.Procs())
	}
	got, err := sp.EstMissRate(4 << 10)
	if err != nil {
		t.Fatal(err)
	}
	want, err := exact.MissRate(4 << 10)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("single-proc rate 1: est %v != exact %v", got, want)
	}
}

// TestSampledErrorEnvelope: on synthetic sharing traces, capacities
// covered by the exact window must match fully-associative Replay bit
// for bit with zero-width bands at any sampling rate, and every
// estimate above the window must be a valid probability with a
// self-consistent band. (The tight suite-wide error bound at 1%
// sampling is enforced against the recorded apps in internal/core.)
func TestSampledErrorEnvelope(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		tr := buildSharingTrace(seed, 4, 30000, seed%2 == 0)
		replays := make(map[int]Stats)
		for _, cs := range stackSizes {
			if cs/64 <= DefaultExactLines {
				replays[cs] = replayFullyAssoc(t, tr, 4, 64, cs)
			}
		}
		for _, opt := range []SampledOptions{
			{Rate: 0.3, Seed: uint64(seed), ExactLines: DefaultExactLines},
			{Rate: 0.05, Seed: uint64(seed), ExactLines: DefaultExactLines},
			{Rate: 0.3, Seed: uint64(seed)}, // pure SHARDS, no window
		} {
			sp, err := SampledStackDistances(tr, 64, 1<<20, opt)
			if err != nil {
				t.Fatal(err)
			}
			for _, cs := range stackSizes {
				got, err := sp.EstMissRate(cs)
				if err != nil {
					t.Fatal(err)
				}
				if got < 0 || got > 1 {
					t.Fatalf("seed=%d opt=%+v cs=%d: estimate %v outside [0,1]", seed, opt, cs, got)
				}
				lo, hi, err := sp.Band(cs)
				if err != nil {
					t.Fatal(err)
				}
				if lo > got || hi < got || lo < 0 || hi > 1 {
					t.Fatalf("seed=%d opt=%+v cs=%d: band [%v, %v] inconsistent with estimate %v", seed, opt, cs, lo, hi, got)
				}
				if cs/64 <= sp.ExactLines() {
					checkAgainstReplay(t, fmt.Sprintf("seed=%d opt=%+v", seed, opt), sp, replays[cs], cs)
				}
			}
		}
	}
}

// TestSampledWholeWindowExact: when no processor's stack ever outgrows
// the exact window, the window holds every stack whole, so capacities
// past the window match Replay bit for bit with zero-width bands at any
// sampling rate. A window the stacks outgrow is not whole.
func TestSampledWholeWindowExact(t *testing.T) {
	const procs = 4
	tr := buildSharingTrace(11, procs, 20000, true) // 80 lines per processor
	for _, w := range []int{128, 64} {
		sp, err := SampledStackDistances(tr, 64, stackSizes[len(stackSizes)-1], SampledOptions{Rate: 0.05, Seed: 3, ExactLines: w})
		if err != nil {
			t.Fatal(err)
		}
		if sp.windowWhole != (w == 128) {
			t.Fatalf("window=%d: whole = %v", w, sp.windowWhole)
		}
		if !sp.windowWhole {
			continue
		}
		for _, cs := range stackSizes {
			checkAgainstReplay(t, fmt.Sprintf("window=%d", w), sp, replayFullyAssoc(t, tr, procs, 64, cs), cs)
		}
	}
}

// TestSampledExactLinesRounding: the window depth rounds up to a power
// of two and is reported by ExactLines.
func TestSampledExactLinesRounding(t *testing.T) {
	tr := buildSharingTrace(2, 2, 1000, false)
	sp, err := SampledStackDistances(tr, 64, 1<<20, SampledOptions{Rate: 0.5, Seed: 1, ExactLines: 100})
	if err != nil {
		t.Fatal(err)
	}
	if sp.ExactLines() != 128 {
		t.Fatalf("ExactLines 100 rounded to %d, want 128", sp.ExactLines())
	}
	sp, err = SampledStackDistances(tr, 64, 1<<20, SampledOptions{Rate: 0.5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sp.ExactLines() != 0 {
		t.Fatalf("window disabled but ExactLines = %d", sp.ExactLines())
	}
}

// TestSampledValidation: option and query validation.
func TestSampledValidation(t *testing.T) {
	tr := buildSharingTrace(1, 2, 200, false)
	for _, opt := range []SampledOptions{
		{Rate: 0},
		{Rate: -0.5},
		{Rate: 1.5},
		{Rate: math.NaN()},
		{Rate: 0.5, ExactLines: -1},
	} {
		if _, err := SampledStackDistances(tr, 64, 1<<16, opt); err == nil {
			t.Fatalf("options %+v accepted", opt)
		}
	}
	if _, err := SampledStackDistances(tr, 48, 1<<16, SampledOptions{Rate: 0.5}); err == nil {
		t.Fatal("non-power-of-two line size accepted")
	}
	if _, err := SampledStackDistances(tr, 64, 32, SampledOptions{Rate: 0.5}); err == nil {
		t.Fatal("max cache size below line size accepted")
	}
	sp, err := SampledStackDistances(tr, 64, 4096, SampledOptions{Rate: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sp.EstMissRate(8192); err == nil {
		t.Fatal("query beyond profiled maximum accepted")
	}
	if _, _, err := sp.Band(96); err == nil {
		t.Fatal("non-multiple cache size accepted")
	}
}

// TestSampledDifferentialGeneratedTraces holds every way of counting
// fully-associative misses equal on generated traces (1–8 processors,
// three line sizes, a hot shared region plus private regions, optional
// reset markers): Replay is the oracle; StackDistances, the sampled
// pass at rate 1 with and without a window, and the window-covered
// capacities (every capacity, when the window held each stack whole) of
// the sampled pass at rates 0.3 and 0.05 must agree with it per
// processor and in miss-rate bits, from memory and through a TraceFile.
func TestSampledDifferentialGeneratedTraces(t *testing.T) {
	capLines := []int{1, 2, 3, 8, 64, 512}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		procs := 1 + rng.Intn(8)
		ls := []int{16, 64, 256}[rng.Intn(3)]
		tr := buildSharingTrace(seed, procs, 1500+rng.Intn(2500), rng.Intn(2) == 0)
		maxSize := capLines[len(capLines)-1] * ls
		for _, src := range []TraceSource{tr, openV2(t, writeV2Bytes(t, tr))} {
			what := fmt.Sprintf("seed=%d procs=%d ls=%d src=%T", seed, procs, ls, src)
			exact, err := StackDistances(src, ls, maxSize)
			if err != nil {
				t.Fatal(err)
			}
			var sampled []*SampledProfile
			for _, w := range []int{0, 64, 512} {
				for _, rate := range []float64{1, 0.3, 0.05} {
					sp, err := SampledStackDistances(src, ls, maxSize, SampledOptions{Rate: rate, Seed: uint64(seed), ExactLines: w})
					if err != nil {
						t.Fatal(err)
					}
					sampled = append(sampled, sp)
				}
			}
			for _, c := range capLines {
				cs := c * ls
				st := replayFullyAssoc(t, src, procs, ls, cs)
				for p := 0; p < exact.Procs(); p++ {
					got, err := exact.ProcMisses(p, cs)
					if err != nil {
						t.Fatal(err)
					}
					if want := st.Procs[p].TotalMisses(); got != want {
						t.Errorf("%s cs=%d proc=%d: StackDistances %d != replay %d", what, cs, p, got, want)
					}
				}
				if got, _ := exact.MissRate(cs); math.Float64bits(got) != math.Float64bits(st.MissRate()) {
					t.Errorf("%s cs=%d: StackDistances rate %v != replay %v", what, cs, got, st.MissRate())
				}
				for _, sp := range sampled {
					if sp.Exact() || c <= sp.ExactLines() || sp.windowWhole {
						checkAgainstReplay(t, fmt.Sprintf("%s rate=%v window=%d", what, sp.Rate(), sp.ExactLines()), sp, st, cs)
					}
				}
			}
		}
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
