package memsys

import (
	"cmp"
	"fmt"
	"slices"
)

// Feed drives a set of memory systems through one reference stream, the
// only way references enter a System. It owns what the stream alone
// determines, whatever the systems' cache parameters: the sequence
// number that orders references and the last write to every word, which
// true/false-sharing classification reads. internal/mach flushes each
// processor's reference buffer into its machine's feed; ReplayMulti
// streams decoded trace blocks through one.
//
// A Feed is not safe for concurrent use, and needs no lock: under
// logical-time execution exactly one simulated processor flushes at a
// time, which PRAM timing makes legal (§2.2: the interleaving of
// references, not their latency, is all the memory system observes).
//
// # Inclusion chains
//
// The feed drives its systems as inclusion chains. Systems that are set-
// associative, alike in every parameter but CacheSize, and attached
// before the feed's first reference form one chain, smallest first, when
// each member's set count is a multiple of the previous member's; any
// other system is a chain of one. Processor p's cache in a member then
// holds every line p's cache in each smaller member holds: setassoc.go
// proves this set inclusion, invalidations included, for set counts that
// double, and its argument only uses that each set of the larger cache
// maps into one set of the smaller, which line%sets indexing gives
// whenever one set count is a multiple of the other.
//
// A reference by p to line L walks the chain from its smallest member and
// stops at the first member that hits it with a read, or with a write to
// a line p holds Modified there: every larger member hits it too and
// changes nothing but LRU order and its read and write counts. Inclusion
// gives the hits, and a read hit changes no state. For a write, say p
// holds L Modified in member j. Only p's own write makes a line
// Modified, so p has held L Modified in member j since its last write to
// L, which left p Modified at every size. No other processor referenced
// L since: in member j a foreign read would have downgraded p to Shared
// and a foreign write would have invalidated it. In a larger member,
// then, only p's reads touched L since that write, and p holds L there
// by inclusion: still Modified, so the write hits silently.
//
// So the chain keeps each of those in one place. The smallest member
// sees every reference, and every member's Stats report its read and
// write counts. The largest member's caches hold the LRU stamps, and a
// smaller member reads them there to pick a victim (cache.lru); a walk
// that stops below the largest member stamps the line there, so the
// stamps, too, see every reference. A stamp orders p's last references
// to its lines, so on the lines a smaller member holds, all of which the
// largest holds too, its stamps give the order the member's own would.
type Feed struct {
	systems []*System // in the order added
	heads   []*System // the smallest member of each chain
	maxProc int       // highest processor id a batch may carry

	// words packs the last write to each word as seq<<7 | writer+1, 0
	// when never written; seq counts references (markers excluded). A
	// feed with no systems keeps no history.
	words []uint64
	seq   uint64
	lw    []uint64 // per-batch last-write buffer, reused across batches
}

// NewFeed creates a feed for streams whose processor ids are at most
// maxProc.
func NewFeed(maxProc int) *Feed { return &Feed{maxProc: maxProc} }

// Add attaches a system: from now on every batch feeds it. Its tables
// are sized to the feed's. Before the first reference every system is
// empty, so Add rebuilds the chains from all the systems attached so
// far; afterwards the system is a chain of one.
func (f *Feed) Add(sys *System) {
	sys.growLines(uint64(len(f.words)))
	f.systems = append(f.systems, sys)
	if f.seq > 0 {
		f.heads = append(f.heads, sys)
		return
	}
	// Largest first, each system joins the first chain whose smallest
	// member nests over it, so the chains do not depend on the order of
	// Add calls, and a size whose set count divides no larger one's, such
	// as 48 KB among powers of two, stays a chain of one.
	bySize := slices.Clone(f.systems)
	slices.SortStableFunc(bySize, func(a, b *System) int { return cmp.Compare(b.cfg.CacheSize, a.cfg.CacheSize) })
	var chains [][]*System
	for _, s := range bySize {
		i := slices.IndexFunc(chains, func(ch []*System) bool { return nests(s.cfg, ch[0].cfg) })
		if i < 0 {
			chains = append(chains, []*System{s})
		} else {
			chains[i] = slices.Insert(chains[i], 0, s)
		}
	}
	f.heads = f.heads[:0]
	for _, ch := range chains {
		link(ch)
		f.heads = append(f.heads, ch[0])
	}
}

// link makes empty systems, smallest first, one inclusion chain: each
// hands the references it does not stop to the next, counts its reads
// and writes in the first, and takes its LRU stamps from the last.
func link(chain []*System) {
	top := chain[len(chain)-1]
	for i, s := range chain {
		s.first, s.next = chain[0], nil
		if i+1 < len(chain) {
			s.next = chain[i+1]
		}
		for p, c := range s.caches {
			c.lru = top.caches[p]
		}
	}
}

// nests reports whether a system with configuration big can follow one
// with configuration small in an inclusion chain: both set-associative,
// alike but for CacheSize, and big's set count a multiple of small's.
func nests(small, big Config) bool {
	if small.Assoc == FullyAssoc || big.sets()%small.sets() != 0 {
		return false
	}
	small.CacheSize = big.CacheSize
	return small == big
}

// Systems returns the attached systems in the order they were added.
// The slice is the feed's own; callers must not modify it.
func (f *Feed) Systems() []*System { return f.systems }

// Reserve sizes the write history and every system's tables, exactly,
// for an address space of the given number of words. Callers that know
// the address range up front (mach at phase entry, replay from the
// stream summary) reserve once; references beyond it grow the tables on
// demand.
func (f *Feed) Reserve(words uint64) {
	if len(f.systems) > 0 && uint64(len(f.words)) < words {
		nw := make([]uint64, words)
		copy(nw, f.words)
		f.setWords(nw)
	}
}

// setWords installs a resized write history and grows every system's
// line tables to cover it.
func (f *Feed) setWords(words []uint64) {
	f.words = words
	for _, sys := range f.systems {
		sys.growLines(uint64(len(words)))
	}
}

// ResetStats zeroes every system's counters; caches stay warm.
func (f *Feed) ResetStats() {
	for _, sys := range f.systems {
		sys.ResetStats()
	}
}

// Batch feeds events to every system in turn. events uses the trace
// packing (addr<<8 | proc<<1 | write); a reset marker zeroes every
// system's counters at its place in the stream. times carries each
// reference's requestor clock, which makes the per-node hotspot windows
// deterministic for deterministic programs; with times nil, or a zero
// entry, the sequence number stands in. Batch fails only for an event
// naming a processor beyond the feed's maximum.
func (f *Feed) Batch(events, times []uint64) error {
	if len(f.systems) == 0 {
		return nil
	}
	seq := f.seq
	lw, err := f.history(events)
	if err != nil {
		return err
	}
	drive(f.heads, events, lw, times, seq)
	return nil
}

// history advances the write history over events and returns, for each
// event, the packed last write to its word before it (0 for a marker).
// Tables grow geometrically (at least 1.5×) past the reserved range, so
// first touches of ascending addresses re-make them O(log n) times. The
// returned buffer is reused by the next call.
func (f *Feed) history(events []uint64) ([]uint64, error) {
	if cap(f.lw) < len(events) {
		f.lw = make([]uint64, len(events))
	}
	lw := f.lw[:len(events)]
	words := f.words
	for i, e := range events {
		if e == resetMarker {
			lw[i] = 0
			continue
		}
		p := e >> 1 & 0x7f
		if int(p) > f.maxProc {
			return nil, fmt.Errorf("memsys: corrupt trace: processor %d beyond declared maximum %d", p, f.maxProc)
		}
		w := Addr(e >> 8).Word()
		if w >= uint64(len(words)) {
			f.setWords(grow(words, w, 0))
			words = f.words
		}
		f.seq++
		lw[i] = words[w]
		if e&1 == 1 {
			words[w] = f.seq<<7 | (p + 1)
		}
	}
	return lw, nil
}

// drive hands a batch whose write history is known to each chain in
// turn, a whole batch per chain so its members' tables stay hot; heads
// are the chains' first members. seq is the feed's reference count
// before the batch. The systems' tables must cover the batch (history
// grows them).
func drive(heads []*System, events, lw, times []uint64, seq uint64) {
	for _, head := range heads {
		seq := seq
		for i, e := range events {
			if e == resetMarker {
				for s := head; s != nil; s = s.next {
					s.ResetStats()
				}
				continue
			}
			seq++
			now := seq
			if times != nil && times[i] != 0 {
				now = times[i]
			}
			head.access(e, lw[i], seq, now)
		}
	}
}
