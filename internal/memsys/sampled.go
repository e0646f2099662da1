package memsys

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
)

// This file holds the one invalidation-aware Mattson pass over a trace
// (the stack machinery and its hole rules are in stackdist.go) and the
// SHARDS-style sampling it can run under: spatially-hashed sampling
// estimates the full miss-ratio curve from a small fraction of the
// references, and the exact profile is simply the pass with every line
// tracked.
//
// Spatial hashing (Waldspurger et al., SHARDS) samples LINES, not
// events: a line is tracked iff hash(line) < T, giving sampling rate
// R = T / 2^64. Because sampled-ness is a property of the line, every
// event on a sampled line is seen — including the writes by other
// processors that drive invalidations — so the coherence behaviour of
// the sampled subset is internally exact: holes, hole migration and
// the MESI write-invalidate rule apply to the sampled stacks exactly
// as they do when every line is tracked.
//
// Distances scale by the inverse rate: a sampled stack distance d
// corresponds to an estimated true distance d/R, because the sampled
// stack holds an R-fraction of the resident lines. The histograms stay
// in the raw sampled domain, at index min(d, ⌈maxLines·R⌉), and a
// query converts its capacity instead: with R = T/2^64 for the
// threshold T, floor(d·2^64/T) ≥ C iff d ≥ ⌈C·T/2^64⌉ for every
// capacity C ≤ maxLines, so summing the raw histogram from ⌈C·T/2^64⌉
// selects exactly the samples whose estimated distance reaches C. Each
// histogram is ⌈R·maxLines⌉+1 counters rather than maxLines+1 (1 312
// instead of 131 073 at 1 %, 8-byte lines and 1 MB), and a sample costs
// no division. At R = 1 the conversion is the identity, so
// StackDistances is this pass at R = 1 with the histograms indexed by
// true distance.
//
// Each sample carries weight 1/R (estimating R·N references from N
// samples). R is constant over a pass, so the pass accumulates unit
// counts in integer histograms and the queries divide by R: at R = 1
// every sum is the exact count and the division is by 1.0.
//
// Miss RATIOS use the exact reference count in the denominator: every
// event increments the per-processor read/write counters whether or
// not its line is sampled (this costs one hash and one compare per
// unsampled event, which is where the speedup over the exact pass
// comes from). Anchoring the denominator exactly has the same effect
// as the SHARDS-adj histogram correction — the residual mass that
// correction would add to the always-hit bucket never reaches any
// miss sum here, because misses are summed from the capacity up.
//
// Confidence bands come from jackknifing over 16 hash strata: the low
// four bits of the line hash partition the sampled lines into 16
// independent sub-samples, each stratum accumulates its own miss-
// weight histogram, and the leave-one-out variance of the 16 stratum
// aggregates yields a standard error for the estimated miss ratio at
// every capacity. The construction is deterministic — no RNG — so a
// fixed seed gives byte-identical profiles across runs and GOMAXPROCS
// settings. At rate 1 the pass is exact and the band collapses to zero
// width.
//
// Spatial sampling is blind below a granularity of 1/R lines: a
// sampled distance of d can only assert the true distance lies near
// d/R, so capacities under a few multiples of 1/R lines would be
// answered from the indistinguishable-from-zero pile and biased low.
// The estimator therefore carries an EXACT small-capacity window
// (ExactLines): a per-processor circular buffer holding the true top-W
// slots of the full Mattson stack — lines and invalidation holes, in
// exact recency order. Every event (sampled or not) updates the
// window with the same three rules as the full stack (insert consumes
// the topmost hole; a re-reference with a hole above migrates the
// topmost hole down to its old slot; otherwise the slot closes), and
// each rule maps to a bounded shift of the buffer because entries
// below the touched slot never move: the slot-close shift up and the
// front-insert shift down cancel. The window's hit histogram is
// therefore exact for every depth < W, and capacities ≤ W·lineSize
// are answered exactly as refs − hits — no sampling error at all —
// while larger capacities use the SHARDS estimate, whose granularity
// 1/R is by then a small fraction of the capacity. If no window ever
// pushed a line out of its bottom slot, every processor's whole stack
// fitted in its window, so the window histograms are the complete
// distance histograms and every capacity is answered exactly.

// SampledOptions configures a sampled stack-distance pass.
type SampledOptions struct {
	// Rate is the spatial sampling rate in (0, 1]: a line is tracked iff
	// hash(line, Seed) falls below Rate·2^64. Rate 1 tracks every line,
	// which is the pass StackDistances runs.
	Rate float64
	// Seed perturbs the line hash, choosing an independent sampled
	// subset. The pass is deterministic for a fixed seed.
	Seed uint64
	// ExactLines, when positive, answers capacities up to
	// ExactLines·lineSize exactly from a top-W stack window updated on
	// every reference — spatial sampling cannot resolve distances below
	// ~1/Rate lines, so small caches come from the window instead.
	// Rounded up to a power of two. DefaultExactLines is a good choice;
	// zero disables the window (pure SHARDS).
	ExactLines int
}

// DefaultExactLines is the exact-window depth the engine uses: 512
// lines (32 KB of 64-byte lines) keeps every sweep point at or below
// 32 KB exact, and is ≥ 5/R lines at 1% sampling, past the region
// where the SHARDS distance granularity matters.
const DefaultExactLines = 512

// sampleStrata is the number of hash strata the confidence bands
// jackknife over: the low log2(sampleStrata) bits of the line hash
// assign each sampled line to one stratum.
const sampleStrata = 16

// sampleHash is the spatial sampling hash: splitmix64's finalizer over
// the line number, offset by the seed. Uniform enough that the
// threshold test realizes the configured rate and the low bits stratify
// independently of it.
func sampleHash(line, seed uint64) uint64 {
	z := line + seed + 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// winHole marks an invalidation hole occupying an exact-window slot.
const winHole = ^uint64(0)

// exactWindow is one processor's view of the true top-W slots of its
// Mattson stack: a circular buffer of line numbers and holes in exact
// recency order, plus the exact hit histogram for depths < W. The
// buffer length is a power of two ≥ W so position arithmetic is a
// mask; logical occupancy is capped at W.
type exactWindow struct {
	win   []uint64 // circular: win[(head+depth)&mask]
	mask  int
	head  int
	n     int      // occupied slots (lines + holes), ≤ W
	w     int      // logical capacity
	holes int      // holes among the occupied slots
	hist  []uint64 // hist[d]: exact hits at depth d (d slots above)
}

func newExactWindow(w int) exactWindow {
	capPow := 1
	for capPow < w {
		capPow <<= 1
	}
	return exactWindow{win: make([]uint64, capPow), mask: capPow - 1, w: capPow, hist: make([]uint64, capPow)}
}

func (ew *exactWindow) at(d int) uint64 { return ew.win[(ew.head+d)&ew.mask] }

// pushFront makes the given value the most recent slot.
func (ew *exactWindow) pushFront(v uint64) {
	ew.head = (ew.head - 1) & ew.mask
	ew.win[ew.head] = v
	ew.n++
}

// reference handles a re-reference of a resident line: the exact hit
// is recorded at its depth and the line moves to the front under the
// hole rules of the full stack. The whole update is one carry walk —
// the line is written at depth 0 and each slot above the old one
// shifts down a step as the walk passes — so a hit at depth d costs
// exactly d+1 slot writes (the separate find-then-shift formulation
// costs twice that, and this loop is the sampler's hot path). When the
// walk crosses a hole first, the hole is where the shifting stops
// (entries between the hole and the line keep their depths) and the
// line's old slot becomes the migrated hole — the same net edit as the
// full stack's hole-migration rule.
func (ew *exactWindow) reference(line uint64) {
	head, mask, win := ew.head, ew.mask, ew.win
	carry, shifting := line, true
	for d := 0; d < ew.n; d++ {
		idx := (head + d) & mask
		cur := win[idx]
		if cur == line {
			if shifting {
				win[idx] = carry
			} else {
				win[idx] = winHole
			}
			ew.hist[d]++
			return
		}
		if shifting {
			win[idx] = carry
			if cur == winHole {
				shifting = false
			} else {
				carry = cur
			}
		}
	}
	// Unreachable while the caller's presence bitset is consistent with
	// the buffer; falling through leaves the histogram untouched so a
	// violation shows up as a count mismatch, not memory corruption.
}

// insert admits a line not currently resident (cold, invalidated, or
// deeper than the window). It returns the line pushed out of the
// bottom slot, if any, so the caller can clear its presence bit. The
// hole-consuming branch is the same carry walk as reference: the line
// lands at depth 0, everything above the topmost hole shifts down one,
// and the hole itself is overwritten — occupancy is unchanged.
func (ew *exactWindow) insert(line uint64) (dropped uint64, ok bool) {
	if ew.holes > 0 {
		head, mask, win := ew.head, ew.mask, ew.win
		carry := line
		for d := 0; d < ew.n; d++ {
			idx := (head + d) & mask
			cur := win[idx]
			win[idx] = carry
			if cur == winHole {
				ew.holes--
				return 0, false
			}
			carry = cur
		}
	}
	if ew.n == ew.w {
		// The window is full of real lines (a hole would have been
		// consumed above): the bottom one leaves, and pushFront reuses
		// its freed slot — no shifting.
		tail := ew.at(ew.n - 1)
		ew.n--
		ew.pushFront(line)
		return tail, true
	}
	ew.pushFront(line)
	return 0, false
}

// invalidate turns the line's slot into a hole (MESI write by another
// processor); the slot keeps its position, so deeper depths still
// count it.
func (ew *exactWindow) invalidate(line uint64) {
	head, mask, win := ew.head, ew.mask, ew.win
	for d := 0; d < ew.n; d++ {
		idx := (head + d) & mask
		if win[idx] == line {
			win[idx] = winHole
			ew.holes++
			return
		}
	}
}

// SampledProfile is the result of one sampled stack-distance pass:
// exact per-processor reference counts, unit-count distance histograms
// of the tracked lines, and per-stratum aggregates from which the
// estimated miss count of a fully-associative LRU cache of any profiled
// size — and a 95% confidence band on its miss ratio — follow in
// O(R·maxLines) per query.
type SampledProfile struct {
	profile
	// rate is the realized sampling rate, threshold/2^64; every tracked
	// count is divided by it at query time.
	rate float64
	// threshold is the hash threshold T behind rate; rawDepth converts a
	// capacity to the raw sampled-distance index the histograms use.
	threshold uint64
	// exact flags a pass that tracked every line (rate 1): estimates
	// equal StackDistances' counts and bands collapse.
	exact       bool
	sampledRefs uint64
	// exactLines is the depth of the exact top-W window (0 when
	// disabled): capacities up to exactLines·lineSize are answered
	// exactly from wins[p].hist, with zero-width bands.
	exactLines int
	wins       []*exactWindow
	// windowWhole flags a pass in which no window ever dropped a line:
	// each window held its processor's whole stack, so capacities past
	// exactLines are exact too.
	windowWhole bool
	// strata[k] is hash stratum k's share of the tracked counts,
	// aggregated across processors — the bands cover the aggregate miss
	// ratio. Left empty by an exact pass.
	strata [sampleStrata]stackCounts
}

// SampledStackDistances runs the one-pass simulation of the stream at
// the given line size, tracking the lines opt selects. The profile
// answers any cache size from lineSize up to maxCacheSize with an
// estimated miss count and a jackknife confidence band. Measurement-
// reset markers zero the counters while leaving every stack warm,
// exactly like System.ResetStats. The stream is consumed block by
// block, so a trace on disk profiles out of core; the pass is deterministic
// for a fixed seed. When several CPUs are available the processors are
// sharded across them (see sdShard); the profile is the same for any
// number of shards.
func SampledStackDistances(src TraceSource, lineSize, maxCacheSize int, opt SampledOptions) (*SampledProfile, error) {
	return sampledPass(src, lineSize, maxCacheSize, opt, runtime.GOMAXPROCS(0))
}

// sampledPass is SampledStackDistances over min(workers, processors)
// shards, processor p going to shard p mod W.
func sampledPass(src TraceSource, lineSize, maxCacheSize int, opt SampledOptions, workers int) (*SampledProfile, error) {
	if lineSize < WordBytes || lineSize&(lineSize-1) != 0 {
		return nil, fmt.Errorf("memsys: line size must be a power of two ≥ %d, got %d", WordBytes, lineSize)
	}
	if maxCacheSize < lineSize {
		return nil, fmt.Errorf("memsys: max cache size %d smaller than line size %d", maxCacheSize, lineSize)
	}
	if opt.Rate <= 0 || opt.Rate > 1 || math.IsNaN(opt.Rate) {
		return nil, fmt.Errorf("memsys: sampling rate must be in (0, 1], got %v", opt.Rate)
	}
	if opt.ExactLines < 0 {
		return nil, fmt.Errorf("memsys: ExactLines must be ≥ 0, got %d", opt.ExactLines)
	}
	shift := uint(bits.TrailingZeros(uint(lineSize)))
	maxLines := maxCacheSize / lineSize

	// The stream summary is free from the index footer.
	meta := src.Meta()
	nproc := meta.MaxProc + 1
	if nproc > 64 {
		return nil, fmt.Errorf("memsys: at most 64 processors supported (sharer bitset), trace has %d", nproc)
	}

	// all short-circuits the hash test when every line is tracked.
	all := opt.Rate >= 1
	threshold := ^uint64(0)
	rate := 1.0
	if !all {
		threshold = uint64(opt.Rate * 0x1p64)
		if threshold == 0 {
			threshold = 1
		}
		rate = float64(threshold) * 0x1p-64
	}
	// Raw sampled distances at or past rawMax reach every answerable
	// capacity; they share the histograms' last counter.
	rawMax := rawDepth(maxLines, threshold)

	workers = min(workers, nproc)
	shards := make([]*sdShard, workers)
	for w := range shards {
		sh := &sdShard{
			shift: shift, rawMax: rawMax, nproc: nproc, hint: meta.addrHint(),
			all: all, threshold: threshold, seed: opt.Seed,
			window: opt.ExactLines > 0, windowWhole: true,
		}
		for p := range sh.local {
			sh.local[p] = -1
		}
		// One spare element keeps whatever the allocator places next
		// off the cache lines of this shard's per-event counters.
		sh.procs = make([]sdProc, 0, nproc/workers+2)
		for p := w; p < nproc; p += workers {
			sh.local[p] = int8(len(sh.procs))
			// A processor's slot clock never passes its reference count, so a
			// short stream gets a tree that never needs compacting.
			capHint := sdInitialCap
			if p < len(meta.ProcRefs) && meta.ProcRefs[p] < sdInitialCap {
				capHint = int(meta.ProcRefs[p]) + 1
			}
			pr := sdProc{
				counts: stackCounts{hist: make([]uint64, rawMax+1)},
				stack:  sdStack{tree: make(fenwick, capHint)},
			}
			if sh.window {
				pr.win = newExactWindow(opt.ExactLines)
			}
			sh.procs = append(sh.procs, pr)
		}
		if !all { // an exact pass has no band to jackknife
			for k := range sh.strata {
				sh.strata[k].hist = make([]uint64, rawMax+1)
			}
		}
		shards[w] = sh
	}
	if err := fanOut(src, workers, nil, func(w int, events []uint64) error {
		return shards[w].feed(events)
	}); err != nil {
		return nil, err
	}

	// Merge: each processor's counts and window come from its shard; the
	// strata, sampled-reference count and whole-window flag add up, into
	// the first shard's strata.
	sp := &SampledProfile{
		profile:     profile{lineSize: lineSize, maxLines: maxLines, procs: make([]stackCounts, nproc)},
		rate:        rate,
		threshold:   threshold,
		exact:       all,
		windowWhole: opt.ExactLines > 0,
		strata:      shards[0].strata,
	}
	if opt.ExactLines > 0 {
		sp.wins = make([]*exactWindow, nproc)
		sp.exactLines = shards[0].procs[0].win.w
	}
	for w, sh := range shards {
		for lp := range sh.procs {
			p := w + lp*workers
			sp.procs[p] = sh.procs[lp].counts
			if sp.wins != nil {
				win := sh.procs[lp].win
				sp.wins[p] = &win
			}
		}
		sp.sampledRefs += sh.sampledRefs
		sp.windowWhole = sp.windowWhole && sh.windowWhole
		if w > 0 {
			for k := range sp.strata {
				sp.strata[k].always += sh.strata[k].always
				for d, n := range sh.strata[k].hist {
					sp.strata[k].hist[d] += n
				}
			}
		}
	}
	return sp, nil
}

// sdShard is one worker's share of the pass: a subset of the processors,
// with everything they alone determine held in slices of the shard's
// own — their counts, stacks and exact windows, the presence bitsets
// (bit i is the shard's i-th processor), and the strata, sampled-
// reference count and whole-window flag of their references. Every
// shard reads every event. A processor's state changes only on its own
// references and on another processor's writes to a line it holds, so
// a shard updates its processors fully and, for any other processor's
// write, invalidates its own holders of the line; the presence bits say
// which, and stack bits exist only on sampled lines, so a foreign event
// costs no hash. Which other processors hold the line, and in what
// order they are invalidated, does not change a shard's processors, so
// every processor ends exactly as the unsharded pass leaves it, and the
// merged strata, sums of per-processor counts, equal the unsharded
// ones.
type sdShard struct {
	// Read-only settings of the pass.
	shift     uint
	rawMax    int // last histogram index (see rawDepth)
	nproc     int
	hint      Addr
	all       bool
	threshold uint64
	seed      uint64
	window    bool
	local     [64]int8 // processor id -> index in procs, -1 when another shard's

	procs []sdProc
	// holders maps a line to the bitset of the shard's processors holding
	// it on their stacks (sampled lines only); winHolders to those holding
	// it in their exact windows.
	holders, winHolders []uint64
	strata              [sampleStrata]stackCounts
	sampledRefs         uint64
	windowWhole         bool
}

// sdProc is one processor's state in the pass.
type sdProc struct {
	counts stackCounts
	stack  sdStack
	win    exactWindow
}

// feed runs one yield of the stream through the shard.
func (sh *sdShard) feed(events []uint64) error {
	shift := sh.shift
	// The line tables — each stack's last, holders and winHolders — are
	// sized by the first block for the stream summary's addrHint and grow
	// with the addresses the stream shows (see ReplayMulti).
	if line := uint64(max(blockMaxAddr(events), sh.hint)) >> shift; line >= uint64(len(sh.holders)) {
		sh.holders = grow(sh.holders, line, 0)
		for lp := range sh.procs {
			sh.procs[lp].stack.last = grow(sh.procs[lp].stack.last, line, slotNever)
		}
		if sh.window {
			sh.winHolders = grow(sh.winHolders, line, 0)
		}
	}
	// The loop reads locals, not the shard's fields.
	holders, winHolders, procs := sh.holders, sh.winHolders, sh.procs
	all, threshold, seed, window, rawMax := sh.all, sh.threshold, sh.seed, sh.window, sh.rawMax
	for _, e := range events {
		if e == resetMarker {
			sh.reset()
			continue
		}
		p := int(e >> 1 & 0x7f)
		line := (e >> 8) >> shift
		// This fires only for a summary that understates the
		// processors the blocks use.
		if p >= sh.nproc {
			return fmt.Errorf("memsys: corrupt trace: processor %d beyond declared maximum %d", p, sh.nproc-1)
		}
		write := e&1 == 1
		lp := int(sh.local[p])
		if write {
			// Illinois-MESI: after any write the writer is the sole holder —
			// every other resident copy leaves its window and its stack, its
			// stack slot staying behind as a hole (see stackdist.go). Every
			// event on a sampled line is seen (sampling is per line), so the
			// invalidation pattern within a sampled subset matches the full
			// one reference for reference. Invalidating before the writer's
			// own update changes nothing: the writer keeps its bits, and no
			// other processor's state feeds that update.
			var keep uint64
			if lp >= 0 {
				keep = 1 << uint(lp)
			}
			sh.invalidate(line, keep)
		}
		if lp < 0 {
			continue
		}
		bit := uint64(1) << uint(lp)
		pr := &procs[lp]
		c := &pr.counts
		if write {
			c.writes++
		} else {
			c.reads++
		}

		// Exact small-capacity window: every event updates the true
		// top-W stack slots; an unsampled event's full cost is this
		// plus the counters above and the hash-and-compare below.
		if window {
			if winHolders[line]&bit != 0 {
				pr.win.reference(line)
			} else {
				if dropped, ok := pr.win.insert(line); ok {
					winHolders[dropped] &^= bit
					sh.windowWhole = false
				}
				winHolders[line] |= bit
			}
		}

		// The spatial sampling gate, and the hash stratum of a line
		// that passes it (none when every line is tracked).
		var sc *stackCounts
		if !all {
			z := sampleHash(line, seed)
			if z >= threshold {
				continue
			}
			sc = &sh.strata[z&(sampleStrata-1)]
		}
		sh.sampledRefs++

		st := &pr.stack
		slot := st.last[line]
		st.ensureSlot()
		st.clock++
		now := st.clock
		from := 0 // the slot whose count moves to now, 0 for none
		switch slot {
		case slotNever, slotInval:
			c.always++
			if sc != nil {
				sc.always++
			}
			// The line enters every cache; the insertion fills the
			// frontmost freed slot, if an invalidation left one.
			if len(st.holes) > 0 {
				from = st.holes.popMax()
			}
		default:
			// Compaction may have renumbered the slot read above.
			cur := int(st.last[line])
			// Depth = stack slots (resident lines AND holes) above this
			// one, counted in the sampled stack; queries scale it (see
			// rawDepth).
			d := min(int(st.tree.between(cur, now-1)), rawMax)
			c.hist[d]++
			if sc != nil {
				sc.hist[d]++
			}
			if len(st.holes) > 0 && st.holes[0] > cur {
				// A hole sits above the line: caches that missed fill their
				// freed slot, so the topmost hole migrates down to the old
				// position (which stays occupied, now as a hole).
				from = st.holes.popMax()
				st.holes.push(cur)
			} else {
				from = cur
			}
		}
		if from > 0 {
			st.tree.move(from, now)
		} else {
			st.tree.add(now, 1)
		}
		st.last[line] = int64(now)
		holders[line] |= bit
	}
	return nil
}

// invalidate removes line from the window and the stack of every one of
// the shard's processors that holds it, except those in keep.
func (sh *sdShard) invalidate(line, keep uint64) {
	if sh.window {
		for rem := sh.winHolders[line] &^ keep; rem != 0; rem &= rem - 1 {
			sh.procs[bits.TrailingZeros64(rem)].win.invalidate(line)
		}
		sh.winHolders[line] &= keep
	}
	for rem := sh.holders[line] &^ keep; rem != 0; rem &= rem - 1 {
		st := &sh.procs[bits.TrailingZeros64(rem)].stack
		st.holes.push(int(st.last[line]))
		st.last[line] = slotInval
	}
	sh.holders[line] &= keep
}

// reset zeroes the shard's counters at a measurement-reset marker,
// leaving every stack and window warm.
func (sh *sdShard) reset() {
	for lp := range sh.procs {
		sh.procs[lp].counts.reset()
		clear(sh.procs[lp].win.hist)
	}
	for k := range sh.strata {
		sh.strata[k].reset()
	}
	sh.sampledRefs = 0
}

// rawDepth is the first raw sampled depth whose estimated distance
// reaches capLines lines at hash threshold T: ⌈capLines·T/2^64⌉, the
// histogram index a query of capLines sums from. At T = 2^64−1 (every
// line tracked) it is capLines itself.
func rawDepth(capLines int, threshold uint64) int {
	hi, lo := bits.Mul64(uint64(capLines), threshold)
	if lo != 0 {
		hi++
	}
	return int(hi)
}

// Rate returns the realized sampling rate of the pass.
func (sp *SampledProfile) Rate() float64 { return sp.rate }

// Exact reports whether the pass tracked every line (rate 1), making
// every estimate equal to StackDistances' count.
func (sp *SampledProfile) Exact() bool { return sp.exact }

// SampledRefs returns how many references actually entered the sampled
// stacks since the last reset marker.
func (sp *SampledProfile) SampledRefs() uint64 { return sp.sampledRefs }

// ExactLines returns the depth of the exact small-capacity window in
// lines; capacities up to ExactLines·LineSize carry no sampling error.
// Zero means the window is disabled.
func (sp *SampledProfile) ExactLines() int { return sp.exactLines }

// EstProcMisses returns processor p's estimated miss count in a fully-
// associative LRU cache of the given size. At rate 1, for capacities
// within the exact window, or for any capacity when the window held
// every stack whole, the estimate equals StackProfile.ProcMisses exactly.
func (sp *SampledProfile) EstProcMisses(p, cacheSize int) (float64, error) {
	capLines, err := sp.capacityLines(cacheSize)
	if err != nil {
		return 0, err
	}
	c := &sp.procs[p]
	if capLines <= sp.exactLines || sp.windowWhole {
		// Within the exact window: misses = refs − exact hits above the
		// capacity depth. Integer arithmetic throughout — no estimate.
		hits := uint64(0)
		for _, n := range sp.wins[p].hist[:min(capLines, sp.exactLines)] {
			hits += n
		}
		return float64(c.reads + c.writes - hits), nil
	}
	return float64(c.misses(rawDepth(capLines, sp.threshold))) / sp.rate, nil
}

// EstMisses returns the estimated total miss count across processors
// for a fully-associative LRU cache of the given size.
func (sp *SampledProfile) EstMisses(cacheSize int) (float64, error) {
	var total float64
	for p := range sp.procs {
		m, err := sp.EstProcMisses(p, cacheSize)
		if err != nil {
			return 0, err
		}
		total += m
	}
	return total, nil
}

// EstMissRate returns the estimated misses per reference for a fully-
// associative LRU cache of the given size. The denominator is the
// exact reference count, so at rate 1 the result is bit-identical to
// StackProfile.MissRate.
func (sp *SampledProfile) EstMissRate(cacheSize int) (float64, error) {
	misses, err := sp.EstMisses(cacheSize)
	if err != nil {
		return 0, err
	}
	refs := sp.Refs()
	if refs == 0 {
		return 0, nil
	}
	return misses / float64(refs), nil
}

// Band returns a 95% confidence interval for the aggregate miss ratio
// at the given cache size, from a jackknife over the hash strata. An
// exact answer (rate 1, a window-covered capacity, or a whole window)
// is a zero-width band at the estimate. The
// band is clamped to [0, 1].
func (sp *SampledProfile) Band(cacheSize int) (lo, hi float64, err error) {
	capLines, err := sp.capacityLines(cacheSize)
	if err != nil {
		return 0, 0, err
	}
	est, err := sp.EstMissRate(cacheSize)
	if err != nil {
		return 0, 0, err
	}
	if sp.exact || capLines <= sp.exactLines || sp.windowWhole {
		return est, est, nil
	}
	refs := sp.Refs()
	if refs == 0 {
		return 0, 0, nil
	}
	// Per-stratum aggregate miss weight at this capacity, and the
	// leave-one-out estimates it induces.
	const n = float64(sampleStrata)
	var m [sampleStrata]float64
	var total float64
	raw := rawDepth(capLines, sp.threshold)
	for k := range m {
		m[k] = float64(sp.strata[k].misses(raw)) / sp.rate
		total += m[k]
	}
	var loo [sampleStrata]float64
	var mean float64
	for k := range m {
		loo[k] = (total - m[k]) * n / (n - 1) / float64(refs)
		mean += loo[k]
	}
	mean /= n
	var ss float64
	for k := range loo {
		d := loo[k] - mean
		ss += d * d
	}
	se := math.Sqrt((n - 1) / n * ss)
	lo = est - 1.96*se
	hi = est + 1.96*se
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi, nil
}
