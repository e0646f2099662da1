package memsys

import "fmt"

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
type Feed struct {
	systems []*System
	maxProc int // highest processor id a batch may carry

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

// Add attaches a system: from now on every batch feeds it, after the
// systems added before it. Its tables are sized to the feed's, and its
// sequence number joins the feed's, so the losses it stamps compare
// with the shared write history.
func (f *Feed) Add(sys *System) {
	sys.seq = f.seq
	sys.growLines(uint64(len(f.words)))
	f.systems = append(f.systems, sys)
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
	lw, err := f.history(events)
	if err != nil {
		return err
	}
	drive(f.systems, events, lw, times)
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

// drive hands a batch whose write history is known to each system in
// turn, a whole batch per system so its tables stay hot. The systems'
// tables must cover the batch (history grows them).
func drive(systems []*System, events, lw, times []uint64) {
	for _, sys := range systems {
		for i, e := range events {
			if e == resetMarker {
				sys.ResetStats()
				continue
			}
			var now uint64
			if times != nil {
				now = times[i]
			}
			sys.access(int(e>>1&0x7f), Addr(e>>8), e&1 == 1, lw[i], now)
		}
	}
}
