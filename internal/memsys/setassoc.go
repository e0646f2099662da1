package memsys

import (
	"fmt"
	"math/bits"
	"slices"
)

// This file implements the set-associative half of a Figure-3 working-
// set sweep as one pass over a trace: exact per-processor miss counts of
// an A-way LRU cache at every cache size of the sweep, from one read of
// the stream, instead of one coherence simulation per size. It rests on
// two facts.
//
// Processors are independent. Whether a reference misses depends only on
// whether the line is in the processor's own cache (a write hit on a
// Shared line upgrades without a miss), and a cache's contents change
// only through (a) the processor's own references, which insert the line
// or touch it for LRU, (b) its own evictions, decided by those references,
// and (c) invalidations by other processors' writes. Under the Illinois
// protocol a write by q leaves q the sole holder of the line at every
// cache size — a write hit on Modified/Exclusive has no other holders, an
// upgrade invalidates every other sharer, and a write miss invalidates the
// owner and all sharers during the fill — with or without replacement
// hints (a stale sharer bit sends a message but removes nothing). Reads
// never remove a line: a read miss only downgrades a dirty owner to
// Shared. So processor p's cache at every size is a function of p's own
// reference sequence plus the points where another processor wrote a
// line p had referenced. Reset markers zero the counters and leave every
// cache warm. This is the rule the hole-aware stacks in sampled.go use.
//
// Inclusion across set counts. With bit-selection indexing and power-of-
// two set counts, an A-way LRU cache with 2S sets holds every line the
// S-set cache holds (Hill & Smith 1989), invalidations included. Each 2S
// set maps into one S set. By induction over operations on one processor:
// an invalidation removes the line from both; a reference to a line both
// hold changes neither's contents; a reference the S cache misses and the
// 2S cache hits only removes a line from the smaller one. Left is a
// reference both miss, where the 2S cache evicts the LRU line y of a full
// set. The A−1 other lines of that set were referenced after y and not
// invalidated since. An LRU set that holds y also holds every line of the
// set referenced since y and not invalidated (such a line could only
// leave as the set's LRU, and y is older). So if the S set holds y, it
// holds those A lines, which is all it can hold. It is full, y is its LRU
// line, and it evicts y too. Applied size by size, the caches of a
// power-of-two sweep nest.
//
// The pass therefore keeps, for each (processor, line) pair, one number:
// its level, the index of the smallest size at which the line is
// resident (K, the number of sizes, when it is resident nowhere). A
// reference at level l hits at every size index ≥ l and misses at every
// index < l; at each of those the line is inserted into its set, and an
// evicted victim's level becomes c+1. After the reference the line is
// most recently used everywhere, so its level is 0. A write by p sets the
// level of every other processor that has touched the line since the last
// foreign write to K, in O(sharers), exactly the directory's invalidation.
// Per size and processor, a set array of line ids stands in for the cache
// set: a slot whose line's level exceeds the size index is a hole — the
// line was invalidated or left at a smaller size — and the next insertion
// into that set takes it, just as a cache fills an invalid way before it
// evicts. The victim of a full set is the line with the oldest
// per-processor access stamp, the order the cache's LRU stamps follow.

// setAssocLevelBits is the width of the level field packed into the low
// bits of a (processor, line) state word; the access stamp sits above it.
// Power-of-two set counts cap a sweep at 64 distinct sizes.
const setAssocLevelBits = 8

const setAssocLevelMask = 1<<setAssocLevelBits - 1

// setLevel is one cache size of the sweep: its set geometry and every
// processor's set array, slot j of set s of processor p at
// ways[(p*sets+s)*assoc+j]. A slot holds line+1, or 0 when never filled.
type setLevel struct {
	setMask uint64
	sets    int
	ways    []uint64
}

// SetAssocProfile is the result of one SetAssocSweep pass: exact per-
// processor reference counts and miss counts of an A-way LRU cache at
// each profiled size. Query with ProcMisses or MissRate.
type SetAssocProfile struct {
	// profile's hist is indexed by level: hist[l] counts references that
	// found their line resident from size index l up, and always counts
	// those resident at no size.
	profile
	sizes []int // ascending, distinct
}

// SetAssocSweep runs the one-pass simulation of the stream for assoc-way
// LRU caches of every size in cacheSizes (any order, duplicates allowed)
// at the given line size. Each size must pass Config.Validate and give a
// power-of-two number of sets. Per processor, the counts equal Replay's
// at each size, with or without replacement hints. Measurement-reset
// markers zero the counters while leaving every cache warm, exactly like
// System.ResetStats. The stream is consumed block by block, so a trace
// on disk is profiled out of core.
func SetAssocSweep(src TraceSource, lineSize, assoc int, cacheSizes []int) (*SetAssocProfile, error) {
	if assoc < 1 {
		return nil, fmt.Errorf("memsys: SetAssocSweep needs assoc ≥ 1, got %d (StackDistances answers fully associative caches)", assoc)
	}
	meta := src.Meta()
	nproc := meta.MaxProc + 1
	sizes := slices.Clone(cacheSizes)
	slices.Sort(sizes)
	sizes = slices.Compact(sizes)
	for _, cs := range sizes {
		cfg := Config{Procs: nproc, CacheSize: cs, Assoc: assoc, LineSize: lineSize}
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		if s := cfg.sets(); s&(s-1) != 0 {
			return nil, fmt.Errorf("memsys: cache size %d gives %d sets of %d ways; the one-pass sweep needs a power of two", cs, s, assoc)
		}
	}
	shift := uint(bits.TrailingZeros(uint(lineSize)))
	k := len(sizes)

	sp := &SetAssocProfile{
		profile: profile{lineSize: lineSize, procs: make([]stackCounts, nproc)},
		sizes:   sizes,
	}
	if k > 0 {
		sp.maxLines = sizes[k-1] / lineSize
	}
	levels := make([]setLevel, k)
	for c, cs := range sizes {
		sets := cs / lineSize / assoc
		levels[c] = setLevel{setMask: uint64(sets - 1), sets: sets, ways: make([]uint64, nproc*sets*assoc)}
	}
	for p := range sp.procs {
		sp.procs[p].hist = make([]uint64, k)
	}
	// state[p][line] packs p's last access stamp above the line's level;
	// sharers[line] holds the procs that touched it since the last
	// foreign write. The first block sizes both for meta.addrHint, and
	// they grow with the addresses the stream shows (see ReplayMulti).
	state := make([][]uint64, nproc)
	var sharers []uint64
	hint := meta.addrHint()
	clock := make([]uint64, nproc)

	err := src.blocks(func(events []uint64) error {
		if line := uint64(max(blockMaxAddr(events), hint)) >> shift; line >= uint64(len(sharers)) {
			sharers = grow(sharers, line, 0)
			for q := range state {
				state[q] = grow(state[q], line, uint64(k))
			}
		}
		sharers := sharers // the loop reads a local, not the captured variable
		for _, e := range events {
			if e == resetMarker {
				for p := range sp.procs {
					sp.procs[p].reset()
				}
				continue
			}
			p := int(e >> 1 & 0x7f)
			// This fires only for a summary that understates the
			// processors the blocks use; it mirrors ReplayMulti's.
			if p >= nproc {
				return fmt.Errorf("memsys: corrupt trace: processor %d beyond declared maximum %d", p, meta.MaxProc)
			}
			line := (e >> 8) >> shift
			write := e&1 == 1

			cnt := &sp.procs[p]
			if write {
				cnt.writes++
			} else {
				cnt.reads++
			}
			st := state[p]
			lvl := int(st[line] & setAssocLevelMask)
			if lvl == k {
				cnt.always++
			} else {
				cnt.hist[lvl]++
			}
			for c := 0; c < lvl; c++ {
				levels[c].insert(st, p, line, c, assoc)
			}
			clock[p]++
			st[line] = clock[p] << setAssocLevelBits

			bit := uint64(1) << uint(p)
			if write {
				for rem := sharers[line] &^ bit; rem != 0; rem &= rem - 1 {
					qs := state[bits.TrailingZeros64(rem)]
					qs[line] = qs[line]&^setAssocLevelMask | uint64(k)
				}
				sharers[line] = bit
			} else {
				sharers[line] |= bit
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return sp, nil
}

// insert places line in processor p's set at size index c, where it is
// not resident. It takes the slot that still names the line, if one does
// (left behind by an invalidation), else the first hole, else evicts the
// set's least recently used line, whose level becomes c+1: by inclusion
// it is still resident at every larger size. st is p's state row.
func (lv *setLevel) insert(st []uint64, p int, line uint64, c, assoc int) {
	base := (p*lv.sets + int(line&lv.setMask)) * assoc
	set := lv.ways[base : base+assoc]
	slot, hole, victim := -1, -1, -1
	oldest := ^uint64(0)
	for j, v := range set {
		if v == line+1 {
			slot = j
			break
		}
		if hole >= 0 {
			continue
		}
		if v == 0 {
			hole = j
			continue
		}
		ys := st[v-1]
		if int(ys&setAssocLevelMask) > c {
			hole = j
			continue
		}
		if ys>>setAssocLevelBits < oldest {
			oldest = ys >> setAssocLevelBits
			victim = j
		}
	}
	if slot < 0 {
		slot = hole
	}
	if slot < 0 {
		slot = victim
		y := set[slot] - 1
		st[y] = st[y]&^setAssocLevelMask | uint64(c+1)
	}
	set[slot] = line + 1
}

// sizeIndex converts a profiled cache size to its level-histogram query
// index: references at level > c miss at size index c.
func (sp *SetAssocProfile) sizeIndex(cacheSize int) (int, error) {
	c, ok := slices.BinarySearch(sp.sizes, cacheSize)
	if !ok {
		return 0, fmt.Errorf("memsys: cache size %d not in the profiled sweep %v", cacheSize, sp.sizes)
	}
	return c + 1, nil
}

// ProcMisses returns processor p's exact miss count in an assoc-way LRU
// cache of the given size — equal, reference for reference, to Replay
// with that Assoc and CacheSize.
func (sp *SetAssocProfile) ProcMisses(p, cacheSize int) (uint64, error) {
	i, err := sp.sizeIndex(cacheSize)
	if err != nil {
		return 0, err
	}
	return sp.procs[p].misses(i), nil
}

// MissRate returns misses per reference at the given cache size, bit-
// identical to Stats.MissRate of a replay at that size.
func (sp *SetAssocProfile) MissRate(cacheSize int) (float64, error) {
	i, err := sp.sizeIndex(cacheSize)
	if err != nil {
		return 0, err
	}
	return sp.missRate(i), nil
}

// SweepMissRates answers a cache-size sweep at one associativity — a
// Figure 3 working-set curve — from one pass over the stream: the
// stack-distance pass for fully associative caches, SetAssocSweep
// otherwise. The returned function gives misses per reference at any
// size in cacheSizes, bit-identical to replaying that size on its own.
func SweepMissRates(src TraceSource, lineSize, assoc int, cacheSizes []int) (func(cacheSize int) (float64, error), error) {
	if assoc == FullyAssoc {
		maxSize := 0
		for _, cs := range cacheSizes {
			maxSize = max(maxSize, cs)
		}
		sp, err := StackDistances(src, lineSize, maxSize)
		if err != nil {
			return nil, err
		}
		return sp.MissRate, nil
	}
	sp, err := SetAssocSweep(src, lineSize, assoc, cacheSizes)
	if err != nil {
		return nil, err
	}
	return sp.MissRate, nil
}
