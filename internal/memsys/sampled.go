package memsys

import (
	"fmt"
	"math"
	"math/bits"
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
// stack holds an R-fraction of the resident lines. The histogram is
// accumulated directly in the estimated (true-distance) domain at
// index floor(d/R). For an integer capacity C, floor(d/R) ≥ C iff
// d/R ≥ C, so querying the estimated-domain histogram selects exactly
// the same samples as thresholding the raw sampled distances — and at
// R = 1 the index is d itself: StackDistances is this pass at R = 1.
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

func newExactWindow(w int) *exactWindow {
	capPow := 1
	for capPow < w {
		capPow <<= 1
	}
	return &exactWindow{win: make([]uint64, capPow), mask: capPow - 1, w: capPow, hist: make([]uint64, capPow)}
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
// O(maxLines) per query.
type SampledProfile struct {
	profile
	// rate is the realized sampling rate, threshold/2^64; every tracked
	// count is divided by it at query time.
	rate float64
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
// for a fixed seed.
func SampledStackDistances(src TraceSource, lineSize, maxCacheSize int, opt SampledOptions) (*SampledProfile, error) {
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

	sp := &SampledProfile{
		profile: profile{lineSize: lineSize, maxLines: maxLines, procs: make([]stackCounts, nproc)},
		rate:    rate,
		exact:   all,
	}
	if !all { // an exact pass has no band to jackknife
		for k := range sp.strata {
			sp.strata[k].hist = make([]uint64, maxLines+1)
		}
	}
	var wins []*exactWindow
	if opt.ExactLines > 0 {
		wins = make([]*exactWindow, nproc)
		for p := range wins {
			wins[p] = newExactWindow(opt.ExactLines)
		}
		sp.wins = wins
		sp.exactLines = wins[0].w
		sp.windowWhole = true
	}
	stacks := make([]sdStack, nproc)
	for p := 0; p < nproc; p++ {
		// A processor's slot clock never passes its reference count, so a
		// short stream gets a tree that never needs compacting.
		capHint := sdInitialCap
		if p < len(meta.ProcRefs) && meta.ProcRefs[p] < sdInitialCap {
			capHint = int(meta.ProcRefs[p]) + 1
		}
		stacks[p] = sdStack{tree: make(fenwick, capHint)}
		sp.procs[p].hist = make([]uint64, maxLines+1)
	}
	// The line tables — each stack's last, holders (line -> bitset of
	// stack-resident procs) and winHolders (line -> bitset of procs
	// holding it in-window) — are sized by the first block for
	// meta.addrHint and grow with the addresses the stream shows (see
	// ReplayMulti).
	var holders, winHolders []uint64
	hint := meta.addrHint()

	err := src.blocks(func(events []uint64) error {
		if line := uint64(max(blockMaxAddr(events), hint)) >> shift; line >= uint64(len(holders)) {
			holders = grow(holders, line, 0)
			for q := range stacks {
				stacks[q].last = grow(stacks[q].last, line, slotNever)
			}
			if wins != nil {
				winHolders = grow(winHolders, line, 0)
			}
		}
		// The loop reads locals, not the captured variables.
		holders, winHolders := holders, winHolders
		for _, e := range events {
			if e == resetMarker {
				for p := range sp.procs {
					sp.procs[p].reset()
				}
				for k := range sp.strata {
					sp.strata[k].reset()
				}
				for _, ew := range wins {
					clear(ew.hist)
				}
				sp.sampledRefs = 0
				continue
			}
			p := int(e >> 1 & 0x7f)
			line := (e >> 8) >> shift
			// This fires only for a summary that understates the
			// processors the blocks use.
			if p >= nproc {
				return fmt.Errorf("memsys: corrupt trace: processor %d beyond declared maximum %d", p, meta.MaxProc)
			}
			write := e&1 == 1

			c := &sp.procs[p]
			if write {
				c.writes++
			} else {
				c.reads++
			}

			// Exact small-capacity window: every event updates the true
			// top-W stack slots; an unsampled event's full cost is this
			// plus the counters above and the hash-and-compare below.
			if wins != nil {
				ew := wins[p]
				if winHolders[line]>>uint(p)&1 == 1 {
					ew.reference(line)
				} else {
					if dropped, ok := ew.insert(line); ok {
						winHolders[dropped] &^= 1 << uint(p)
						sp.windowWhole = false
					}
					winHolders[line] |= 1 << uint(p)
				}
				if write {
					for rem := winHolders[line] &^ (1 << uint(p)); rem != 0; rem &= rem - 1 {
						wins[bits.TrailingZeros64(rem)].invalidate(line)
					}
					winHolders[line] = 1 << uint(p)
				}
			}

			// The spatial sampling gate, and the hash stratum of a line
			// that passes it (none when every line is tracked).
			var sc *stackCounts
			if !all {
				z := sampleHash(line, opt.Seed)
				if z >= threshold {
					continue
				}
				sc = &sp.strata[z&(sampleStrata-1)]
			}
			sp.sampledRefs++

			st := &stacks[p]
			slot := st.last[line]
			st.ensureSlot()
			st.clock++
			now := st.clock
			switch slot {
			case slotNever, slotInval:
				c.always++
				if sc != nil {
					sc.always++
				}
				// The line enters every cache; the insertion fills the
				// frontmost freed slot, if an invalidation left one.
				if len(st.holes) > 0 {
					st.tree.add(st.holes.popMax(), -1)
				}
			default:
				// Compaction may have renumbered the slot read above.
				cur := int(st.last[line])
				// Depth = stack slots (resident lines AND holes) above this
				// one; hit in any cache of more than depth lines.
				dEst := uint64(st.tree.sum(now-1) - st.tree.sum(cur))
				// Scale the sampled depth to the estimated true-distance
				// domain: floor(d·2^64/threshold) = floor(d/rate), computed
				// in integers so the pass is exactly reproducible. With
				// every line tracked the depth is already true.
				if !all {
					if dEst < threshold {
						dEst, _ = bits.Div64(dEst, 0, threshold)
					} else {
						dEst = uint64(maxLines)
					}
				}
				d := int(min(dEst, uint64(maxLines)))
				c.hist[d]++
				if sc != nil {
					sc.hist[d]++
				}
				if len(st.holes) > 0 && st.holes[0] > cur {
					// A hole sits above the line: caches that missed fill their
					// freed slot, so the topmost hole migrates down to the old
					// position (which stays occupied, now as a hole).
					st.tree.add(st.holes.popMax(), -1)
					st.holes.push(cur)
				} else {
					st.tree.add(cur, -1)
				}
			}
			st.tree.add(now, 1)
			st.last[line] = int64(now)
			holders[line] |= 1 << uint(p)

			if write {
				// Illinois-MESI: after any write the writer is the sole holder —
				// every other resident copy leaves its stack, its slot staying
				// behind as a hole (see stackdist.go). Every event on a sampled
				// line is seen (sampling is per line), so the invalidation
				// pattern within a sampled subset matches the full one
				// reference for reference.
				for rem := holders[line] &^ (1 << uint(p)); rem != 0; rem &= rem - 1 {
					q := bits.TrailingZeros64(rem)
					stacks[q].holes.push(int(stacks[q].last[line]))
					stacks[q].last[line] = slotInval
				}
				holders[line] = 1 << uint(p)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return sp, nil
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
	return float64(c.misses(capLines)) / sp.rate, nil
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
	for k := range m {
		m[k] = float64(sp.strata[k].misses(capLines)) / sp.rate
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
