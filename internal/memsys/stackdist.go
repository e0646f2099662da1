package memsys

import (
	"fmt"
	"sort"
)

// This file implements a Mattson-style LRU stack-distance simulation of a
// recorded trace: one pass produces exact miss counts for EVERY
// fully-associative cache size simultaneously, collapsing the
// fully-associative half of a Figure-3 working-set sweep from one O(N)
// replay per cache size to a single O(N log M) pass. The stack machinery,
// the counts and the exact profile live here; the event loop itself is
// SampledStackDistances in sampled.go, which the exact profile runs with
// every line tracked.
//
// The classic inclusion argument: an LRU stack orders each processor's
// resident lines by recency, and a fully-associative LRU cache of
// capacity C holds exactly the top C stack entries. A re-reference whose
// line sits at depth d (d lines are more recent) therefore hits iff
// d < C — so a per-depth histogram answers every capacity at once.
//
// Coherence folds in exactly because invalidations are capacity-
// independent under the Illinois (MESI) protocol: after ANY write the
// writer is the sole holder — a write hit on Modified/Exclusive has no
// other holders to begin with, a write hit on Shared upgrades and
// invalidates every other sharer, and a write miss invalidates the owner
// and all sharers during the fill. A write by q thus removes the line
// from every other processor's stack no matter the cache size, and a
// subsequent re-reference by an invalidated processor misses at every
// capacity — matching Replay, where that reference misses whether the
// copy was invalidated (sharing miss) or already evicted (capacity
// miss). Reads never remove lines: a read miss merely downgrades a dirty
// owner to Shared, keeping it resident.
//
// Deletions need one refinement to keep the prefix invariant exact: an
// invalidated entry leaves a HOLE at its stack position rather than
// closing the gap. A capacity-C cache that held the line now runs one
// slot short of C, which is precisely what a hole inside its top C slots
// encodes: cache-C contents are the real entries among the top C slots.
// Stack depth therefore counts holes as well as real entries, and the
// invariant is maintained by two hole rules, each checkable prefix by
// prefix against the per-cache insert/evict semantics:
//
//   - A new line (cold or invalidated copy) enters every cache; pushing
//     it on the stack consumes the topmost hole. Caches whose top-C
//     contained that hole (or one above it) were short a slot and insert
//     without evicting; full caches have all their holes deeper and
//     evict their bottom entry by the shift, as usual.
//   - A re-reference at depth d moves to the front; if some hole lies
//     above the line, the topmost hole migrates down to the line's old
//     slot (caches that missed fill their free slot; caches that hit
//     keep contents — and their hole — unchanged). With no hole above,
//     the old slot closes, the classic Mattson transformation.
//
// Total miss counts are then exact for every capacity; only the
// cold/sharing/capacity decomposition is capacity-dependent, and the
// Figure-3 curves need only totals.

// stackCounts is one histogram set of the pass: a processor's view of
// the stream, or one hash stratum's aggregate across processors. Every
// field is a unit count; a sampled profile scales by 1/rate only when
// queried.
type stackCounts struct {
	// reads and writes count every reference, tracked or not, so miss
	// ratios have an exact denominator (unused on strata).
	reads, writes uint64
	// always counts first-touch and invalidated-copy references among
	// the tracked lines: misses at every capacity.
	always uint64
	// hist[d] counts tracked re-references that found their line at
	// stack depth d: hits in any cache of more than d lines. The last
	// counter aggregates the depths that miss at every answerable
	// capacity. A sampled pass counts raw sampled depths (see
	// rawDepth); an exact one, true depths up to maxLines.
	hist []uint64
}

// reset zeroes the counters at a measurement-reset marker.
func (c *stackCounts) reset() {
	clear(c.hist)
	*c = stackCounts{hist: c.hist}
}

// misses returns the tracked references that miss in a cache of
// capLines lines.
func (c *stackCounts) misses(capLines int) uint64 {
	m := c.always
	for _, n := range c.hist[capLines:] {
		m += n
	}
	return m
}

// profile is what one pass produces and both public profile types
// embed: the geometry it was built at and the per-processor counts.
type profile struct {
	lineSize int
	maxLines int // largest answerable capacity, in lines
	procs    []stackCounts
}

// LineSize returns the line size the profile was built at.
func (pr *profile) LineSize() int { return pr.lineSize }

// MaxCacheSize returns the largest answerable cache size in bytes.
func (pr *profile) MaxCacheSize() int { return pr.maxLines * pr.lineSize }

// Procs returns the number of processors in the profiled trace.
func (pr *profile) Procs() int { return len(pr.procs) }

// Refs returns the exact total reference count since the last reset
// marker — every event is counted, sampled or not.
func (pr *profile) Refs() uint64 {
	var n uint64
	for i := range pr.procs {
		n += pr.procs[i].reads + pr.procs[i].writes
	}
	return n
}

// totalMisses sums every processor's misses at histogram index i.
func (pr *profile) totalMisses(i int) uint64 {
	var total uint64
	for p := range pr.procs {
		total += pr.procs[p].misses(i)
	}
	return total
}

// missRate returns misses per reference at histogram index i. It
// performs the same integer sums and single float division as
// Stats.MissRate, so the result is bit-identical to replaying the trace
// at the matching size.
func (pr *profile) missRate(i int) float64 {
	refs := pr.Refs()
	if refs == 0 {
		return 0
	}
	return float64(pr.totalMisses(i)) / float64(refs)
}

// capacityLines validates a queried cache size and converts it to lines.
func (pr *profile) capacityLines(cacheSize int) (int, error) {
	if cacheSize < pr.lineSize || cacheSize%pr.lineSize != 0 {
		return 0, fmt.Errorf("memsys: cache size %d not a positive multiple of line size %d", cacheSize, pr.lineSize)
	}
	c := cacheSize / pr.lineSize
	if c > pr.maxLines {
		return 0, fmt.Errorf("memsys: cache size %d exceeds profiled maximum %d", cacheSize, pr.MaxCacheSize())
	}
	return c, nil
}

// StackProfile is the result of one exact stack-distance pass: per-
// processor reference counts and distance histograms from which the miss
// count of a fully-associative LRU cache of any profiled size follows in
// O(1) per processor. Query with Misses, ProcMisses or MissRate.
type StackProfile struct{ profile }

// fenwick is a binary indexed tree over access-slot indices, counting
// which slots currently mark a stack-resident line. It gives O(log n)
// depth queries under the arbitrary deletions coherence causes. Slot 0
// is never used.
type fenwick []int32

func (f fenwick) add(i int, v int32) {
	for ; i < len(f); i += i & -i {
		f[i] += v
	}
}

// between returns the count in slots lo+1..hi (lo ≤ hi): the prefix sum
// to hi minus the prefix sum to lo. The two query walks (i -= i&-i)
// share their tail once they reach a common index, where the sums
// cancel, so each walks only until they meet: O(log(hi−lo)) for nearby
// slots rather than two walks of the whole tree height.
func (f fenwick) between(lo, hi int) int32 {
	var s int32
	for hi != lo {
		if hi > lo {
			s += f[hi]
			hi &= hi - 1
		} else {
			s -= f[lo]
			lo &= lo - 1
		}
	}
	return s
}

// move shifts one count from slot from to slot to: add(from, -1) then
// add(to, +1). The two update walks (i += i&-i) merge at a common index
// and coincide from there on, where the −1 and +1 cancel, so each walks
// only until they meet or both have left the tree. The smaller index
// steps: the walks meet at an index no smaller than either.
func (f fenwick) move(from, to int) {
	for from != to {
		if from < to {
			if from >= len(f) {
				return
			}
			f[from]--
			from += from & -from
		} else {
			if to >= len(f) {
				return
			}
			f[to]++
			to += to & -to
		}
	}
}

// holeHeap is a max-heap of stack slot indices holding invalidation
// holes; a miss insertion consumes the topmost (most recent) hole.
type holeHeap []int

func (h *holeHeap) push(v int) {
	s := append(*h, v)
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if s[parent] >= s[i] {
			break
		}
		s[parent], s[i] = s[i], s[parent]
		i = parent
	}
	*h = s
}

func (h *holeHeap) popMax() int {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s = s[:last]
	i := 0
	for {
		l, r, big := 2*i+1, 2*i+2, i
		if l < len(s) && s[l] > s[big] {
			big = l
		}
		if r < len(s) && s[r] > s[big] {
			big = r
		}
		if big == i {
			break
		}
		s[i], s[big] = s[big], s[i]
		i = big
	}
	*h = s
	return top
}

// Sentinel slot values for lines not currently on a processor's stack.
const (
	slotNever = -1 // never referenced by this processor
	slotInval = -2 // removed by a coherence invalidation
)

// sdStack is one processor's stack state. The Fenwick tree indexes
// access slots, which grow one per reference — sizing it by reference
// count (as the pre-streaming implementation did) is O(trace) memory,
// the very thing out-of-core replay exists to avoid. Instead the tree
// starts small and, when the slot clock reaches its capacity, compact
// renumbers the occupied slots 1..m in order. Renumbering preserves
// every between-slot count, so depths — and therefore the profile — are
// bit-identical to the unbounded-slot computation. Occupied slots
// (residents plus holes) never exceed the lines the processor has ever
// touched: the total only grows on an insertion with no hole to consume
// (at which point it equals the resident count), so tree memory is
// O(address space / line size), independent of trace length.
type sdStack struct {
	tree  fenwick
	holes holeHeap
	clock int
	last  []int64 // line -> slot, or a sentinel
}

// sdInitialCap is the starting (and minimum post-compaction) Fenwick
// capacity: big enough that compaction cost amortizes to noise, small
// enough to be irrelevant per processor.
const sdInitialCap = 1 << 16

// ensureSlot guarantees the next slot (clock+1) fits the tree,
// compacting and growing when it does not.
func (st *sdStack) ensureSlot() {
	if st.clock+1 < len(st.tree) {
		return
	}
	st.compact()
}

// sdSlot is one occupied stack slot during compaction: the line
// resident there, or -1 for an invalidation hole.
type sdSlot struct {
	slot int
	line int64
}

// compact renumbers the occupied slots 1..m, preserving their order,
// and rebuilds the tree with fresh headroom.
func (st *sdStack) compact() {
	var occ []sdSlot
	for line, s := range st.last {
		if s >= 0 {
			occ = append(occ, sdSlot{slot: int(s), line: int64(line)})
		}
	}
	for _, h := range st.holes {
		occ = append(occ, sdSlot{slot: h, line: -1})
	}
	sort.Slice(occ, func(i, j int) bool { return occ[i].slot < occ[j].slot })
	newCap := 2 * (len(occ) + 2)
	if newCap < sdInitialCap {
		newCap = sdInitialCap
	}
	st.tree = make(fenwick, newCap)
	st.holes = st.holes[:0]
	for rank, o := range occ {
		s := rank + 1
		st.tree.add(s, 1)
		if o.line >= 0 {
			st.last[o.line] = int64(s)
		} else {
			st.holes.push(s)
		}
	}
	st.clock = len(occ)
}

// StackDistances runs the one-pass simulation of the stream at the
// given line size: the pass in sampled.go at rate 1 with no window, so
// every line is tracked and every count is exact. The profile answers
// any cache size from lineSize up to maxCacheSize. Measurement-reset
// markers zero the counters while leaving every stack warm, exactly like
// System.ResetStats. The stream is consumed block by block with slot-
// compacted trees, so peak memory is O(block buffer + address space) —
// a trace on disk profiles out of core, and the result is bit-identical
// to the in-memory pass.
func StackDistances(src TraceSource, lineSize, maxCacheSize int) (*StackProfile, error) {
	sp, err := SampledStackDistances(src, lineSize, maxCacheSize, SampledOptions{Rate: 1})
	if err != nil {
		return nil, err
	}
	return &StackProfile{sp.profile}, nil
}

// ProcMisses returns processor p's exact miss count in a fully-
// associative LRU cache of the given size — equal, reference for
// reference, to Replay with Assoc=FullyAssoc and that CacheSize.
func (sp *StackProfile) ProcMisses(p, cacheSize int) (uint64, error) {
	capLines, err := sp.capacityLines(cacheSize)
	if err != nil {
		return 0, err
	}
	return sp.procs[p].misses(capLines), nil
}

// Misses returns the total miss count across processors for a fully-
// associative LRU cache of the given size.
func (sp *StackProfile) Misses(cacheSize int) (uint64, error) {
	capLines, err := sp.capacityLines(cacheSize)
	if err != nil {
		return 0, err
	}
	return sp.totalMisses(capLines), nil
}

// MissRate returns misses per reference for a fully-associative LRU
// cache of the given size, bit-identical to replaying the trace at that
// size.
func (sp *StackProfile) MissRate(cacheSize int) (float64, error) {
	capLines, err := sp.capacityLines(cacheSize)
	if err != nil {
		return 0, err
	}
	return sp.missRate(capLines), nil
}
