package memsys

import (
	"fmt"
	"math/bits"
	"sync"
)

// HomeFn maps a cache line index to the node whose local memory holds it.
// Data placement (§2.2: "data are distributed among the processing nodes
// according to the guidelines stated in each application") is decided by
// the allocator in package mach and communicated to memsys through this
// function. It is called with the system's internal lock held and must not
// call back into the System.
type HomeFn func(line uint64) int

// dirEntry is one full-map directory entry. sharers is the exact set of
// caches holding the line (replacement hints keep it exact, §2.2); owner is
// the cache holding the line Exclusive or Modified, or -1.
type dirEntry struct {
	sharers uint64
	owner   int8
}

// wordInfo records the last writer of a word and when the write happened,
// for true/false sharing classification. time==0 means never written.
type wordInfo struct {
	time   uint64
	writer int8
}

// System simulates the multiprocessor memory system. All methods are safe
// for concurrent use by the processor goroutines; every reference is
// processed atomically under one lock, which is correct under PRAM timing
// (the interleaving of references, not their latency, is all that matters).
// Its address-indexed tables are the word write history, the directory
// and one row per processor, which is both that processor's cache (state
// and LRU stamp of each present line) and the history of each lost line
// that miss classification reads.
type System struct {
	cfg  Config
	home HomeFn

	// lineShift converts byte addresses to line indices (LineSize is a
	// validated power of two, so a shift replaces the division on the
	// hottest path).
	lineShift uint

	mu     sync.Mutex
	caches []*cache // each cache's row is its processor's line history
	dir    []dirEntry
	words  []wordInfo
	seq    uint64

	// Trace replay precomputes the word write history once for a whole
	// multi-configuration sweep (it depends only on the event stream, never
	// on cache parameters): when extWords is set, classify reads the
	// caller-provided curWord instead of s.words, and s.words stays empty.
	extWords bool
	curWord  wordInfo

	procs   []ProcStats
	traffic Traffic

	// Per-node service counters for hotspot analysis (§3: the FFT's
	// staggered transposes exist to avoid memory hotspotting): total data
	// bytes served by each node, and the peak served within any window of
	// hotspotWindow logical cycles. Logical-time windows make the metric
	// deterministic for deterministic programs (requestor clocks do not
	// depend on goroutine scheduling).
	nodeServed []uint64
	nodePeak   []uint64
	nodeWindow []uint64
	nodeWinID  []uint64

	// accessTime is the requestor's logical clock for the access being
	// processed (set under the lock; seq is used when no clock is known,
	// e.g. trace replay).
	accessTime uint64
}

// hotspotWindow is the burst-detection granularity in logical cycles.
const hotspotWindow = 512

// New creates a memory system. cfg is validated after defaults are applied.
func New(cfg Config, home HomeFn) (*System, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if home == nil {
		return nil, fmt.Errorf("memsys: nil HomeFn")
	}
	s := &System{cfg: cfg, home: home}
	s.lineShift = uint(bits.TrailingZeros(uint(cfg.LineSize)))
	s.caches = make([]*cache, cfg.Procs)
	for i := range s.caches {
		s.caches[i] = newCache(cfg)
	}
	s.procs = make([]ProcStats, cfg.Procs)
	s.nodeServed = make([]uint64, cfg.Procs)
	s.nodePeak = make([]uint64, cfg.Procs)
	s.nodeWindow = make([]uint64, cfg.Procs)
	s.nodeWinID = make([]uint64, cfg.Procs)
	return s, nil
}

// Config returns the configuration in effect (with defaults applied).
func (s *System) Config() Config { return s.cfg }

// Reserve pre-sizes internal tables, exactly, for an address space of the
// given number of words. Callers that know the address range up front
// (mach at phase entry) reserve once; references beyond the reserved
// range grow the tables on demand.
func (s *System) Reserve(words uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.growWords(words)
}

// growFor makes the tables cover word, which lies beyond them. Growth is
// geometric (at least 1.5×) so that first touches of ascending addresses
// — allocations made while a phase runs — re-copy the tables O(log n)
// times rather than once per touch.
func (s *System) growFor(word uint64) {
	need := word + 1
	if g := uint64(len(s.words)); need < g+g/2 {
		need = g + g/2
	}
	s.growWords(need)
}

// growWords sizes every table for exactly the given number of words.
func (s *System) growWords(words uint64) {
	if uint64(len(s.words)) < words && !s.extWords {
		nw := make([]wordInfo, words)
		copy(nw, s.words)
		s.words = nw
	}
	s.growLines(words)
}

// growLines sizes the line-granular tables (directory, every cache's
// row) for an address space of the given number of words.
func (s *System) growLines(words uint64) {
	lines := (words*WordBytes + uint64(s.cfg.LineSize) - 1) / uint64(s.cfg.LineSize)
	if uint64(len(s.dir)) < lines {
		nd := make([]dirEntry, lines)
		for i := range nd {
			nd[i].owner = -1
		}
		copy(nd, s.dir)
		s.dir = nd
		for _, c := range s.caches {
			nr := make([]uint64, lines)
			copy(nr, c.row)
			c.row = nr
		}
	}
}

// Access simulates one memory reference by processor p to byte address a.
// It returns the miss kind and whether the reference hit in the cache.
// The global sequence number stands in for the requestor clock in hotspot
// windowing; use AccessAt when the requestor's logical time is known.
func (s *System) Access(p int, a Addr, write bool) (hit bool, kind MissKind) {
	return s.access(p, a, write, 0)
}

// AccessAt is Access with the requestor's logical clock, which makes the
// per-node hotspot windows deterministic for deterministic programs.
func (s *System) AccessAt(p int, a Addr, write bool, now uint64) (hit bool, kind MissKind) {
	return s.access(p, a, write, now)
}

// AccessBatch simulates a batch of references by processor p, taking the
// global lock once for the whole batch instead of once per reference.
// events uses the trace packing (addr<<8 | proc<<1 | write, proc must
// equal p); times carries the requestor's logical clock per event (0
// falls back to the global sequence number, as in Access). This is the
// flush target of internal/mach's per-processor reference buffers; the
// state transitions per event are exactly those of AccessAt.
func (s *System) AccessBatch(p int, events []uint64, times []uint64) {
	if len(events) == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, e := range events {
		a := Addr(e >> 8)
		word := a.Word()
		if word >= uint64(len(s.words)) {
			s.growFor(word)
		}
		s.seq++
		now := times[i]
		if now == 0 {
			now = s.seq
		}
		s.accessTime = now
		s.accessCore(p, uint64(a)>>s.lineShift, word, e&1 == 1)
	}
}

func (s *System) access(p int, a Addr, write bool, now uint64) (hit bool, kind MissKind) {
	s.mu.Lock()
	defer s.mu.Unlock()

	word := a.Word()
	if word >= uint64(len(s.words)) {
		s.growFor(word)
	}
	s.seq++
	if now == 0 {
		now = s.seq
	}
	s.accessTime = now
	return s.accessCore(p, uint64(a)>>s.lineShift, word, write)
}

// useExternalWords switches the system to precomputed word-history mode:
// the per-system words table is never allocated and classify consumes the
// packed last-write value handed to each replayAccessExt call instead.
func (s *System) useExternalWords() { s.extWords = true }

// replayAccessExt is the single-threaded replay entry point. Trace
// replay owns its System exclusively, so it skips the global mutex, and
// the word's packed write history (seq<<7 | writer+1, 0 = never written)
// arrives precomputed from one pass over the stream. The tables must
// already cover the address (ReplayMulti grows them). State transitions are
// identical to access with now==0.
func (s *System) replayAccessExt(p int, a Addr, write bool, lw uint64) {
	s.seq++
	s.accessTime = s.seq
	s.curWord = wordInfo{time: lw >> 7, writer: int8(lw&0x7f) - 1}
	s.accessCore(p, uint64(a)>>s.lineShift, a.Word(), write)
}

// accessCore is the protocol engine shared by the locked and replay entry
// points. The caller has sized the tables, advanced seq, and set
// accessTime; it must hold mu or own the System exclusively.
func (s *System) accessCore(p int, line, word uint64, write bool) (hit bool, kind MissKind) {
	st := &s.procs[p]
	if write {
		st.Writes++
	} else {
		st.Reads++
	}

	c := s.caches[p]
	switch state := c.lookup(line); state {
	case Modified:
		if write {
			s.recordWrite(p, word)
		}
		return true, 0
	case Exclusive:
		if write {
			// Illinois silent upgrade: the directory already records p as
			// owner, memory becomes stale without any message.
			c.setState(line, Modified)
			s.recordWrite(p, word)
		}
		return true, 0
	case Shared:
		if !write {
			return true, 0
		}
		s.upgrade(p, line)
		s.recordWrite(p, word)
		return true, 0
	}

	// Miss path.
	kind = s.classify(p, line, word)
	st.Misses[kind]++
	s.fill(p, line, kind, write)
	if write {
		s.recordWrite(p, word)
	}
	return false, kind
}

// rollWindow folds every node's open window into its peak.
func (s *System) rollWindow() {
	for i := range s.nodeWindow {
		if s.nodeWindow[i] > s.nodePeak[i] {
			s.nodePeak[i] = s.nodeWindow[i]
		}
		s.nodeWindow[i] = 0
	}
}

// serve accounts data bytes served by a node's memory or cache, windowed
// by the requestor's logical time.
func (s *System) serve(node int, n uint64) {
	s.nodeServed[node] += n
	win := s.accessTime / hotspotWindow
	if win != s.nodeWinID[node] {
		if s.nodeWindow[node] > s.nodePeak[node] {
			s.nodePeak[node] = s.nodeWindow[node]
		}
		s.nodeWindow[node] = 0
		s.nodeWinID[node] = win
	}
	s.nodeWindow[node] += n
}

// recordWrite stamps the word's last writer for sharing classification.
// In external-words mode the history was precomputed for the whole
// stream, so there is nothing to record.
func (s *System) recordWrite(p int, word uint64) {
	if s.extWords {
		return
	}
	s.words[word] = wordInfo{time: s.seq, writer: int8(p)}
}

// classify determines the miss kind per the extended [DSR+93] scheme.
func (s *System) classify(p int, line, word uint64) MissKind {
	h := s.caches[p].row[line]
	if h == histNone {
		return MissCold
	}
	lostTime := h >> 4
	wi := s.curWord
	if !s.extWords {
		wi = s.words[word]
	}
	// A write by another processor can only happen while this processor
	// does not hold the line, so comparing against the loss time is exact.
	if wi.time != 0 && int(wi.writer) != p && wi.time >= lostTime {
		return MissTrue
	}
	if h&histMask == histInval {
		return MissFalse
	}
	return MissCapacity
}

// upgrade handles a write hit to a Shared line: invalidate all other
// sharers through the home directory, no data transfer.
func (s *System) upgrade(p int, line uint64) {
	home := s.home(line)
	d := &s.dir[line]
	s.procs[p].Upgrades++
	if home != p {
		s.traffic.RemoteOverhead += uint64(s.cfg.OverheadBytes) // upgrade request
	}
	s.invalidateSharers(p, line, d, home)
	d.sharers = 1 << uint(p)
	d.owner = int8(p)
	s.caches[p].setState(line, Modified)
}

// invalidateSharers sends invalidations to every sharer other than p.
// Invalidations travel home→sharer and acknowledgments sharer→requestor.
func (s *System) invalidateSharers(p int, line uint64, d *dirEntry, home int) {
	ob := uint64(s.cfg.OverheadBytes)
	for rem := d.sharers &^ (1 << uint(p)); rem != 0; rem &= rem - 1 {
		q := bits.TrailingZeros64(rem)
		// Without replacement hints the sharer list can be stale: the
		// invalidation and acknowledgment messages are still sent (that is
		// the cost the hints avoid) but a departed copy has nothing to
		// invalidate, and lose leaves its loss history as it is.
		s.caches[q].lose(line, s.seq<<4|histInval)
		if q != home {
			s.traffic.RemoteOverhead += ob // invalidation
		}
		s.traffic.RemoteOverhead += ob // acknowledgment (q != p by construction)
	}
}

// fill services a miss: obtains the line (from home memory or a remote
// dirty cache), adjusts directory and peer cache states, accounts traffic,
// inserts the line, and handles the victim.
func (s *System) fill(p int, line uint64, kind MissKind, write bool) {
	home := s.home(line)
	d := &s.dir[line]
	ob := uint64(s.cfg.OverheadBytes)
	ls := uint64(s.cfg.LineSize)

	if home != p {
		s.traffic.RemoteOverhead += ob // request to home
	}

	var newState LineState
	switch {
	case d.owner >= 0:
		// Line held Exclusive or Modified by q.
		q := int(d.owner)
		qstate := s.caches[q].peek(line)
		if q != home {
			s.traffic.RemoteOverhead += ob // forward home→owner
		}
		if qstate == Modified {
			// Cache-to-cache transfer q→p (q != p always on a miss).
			s.addData(kind, ls, true)
			s.serve(q, ls)
			s.traffic.RemoteOverhead += ob // data header
			if write {
				// Ownership migrates; memory stays stale.
				s.caches[q].lose(line, s.seq<<4|histInval)
				d.sharers = 1 << uint(p)
				d.owner = int8(p)
				newState = Modified
			} else {
				// Sharing writeback q→home brings memory up to date.
				if q != home {
					s.traffic.RemoteWriteback += ls
					s.traffic.RemoteOverhead += ob // writeback header
				} else {
					s.traffic.LocalData += ls
				}
				s.caches[q].setState(line, Shared)
				d.sharers |= 1 << uint(q)
				d.sharers |= 1 << uint(p)
				d.owner = -1
				newState = Shared
			}
		} else {
			// Owner holds it Exclusive (clean): memory is valid.
			if q != home {
				s.traffic.RemoteOverhead += ob // downgrade ack owner→home
			}
			if write {
				s.caches[q].lose(line, s.seq<<4|histInval)
				d.sharers = 1 << uint(p)
				d.owner = int8(p)
				newState = Modified
			} else {
				s.caches[q].setState(line, Shared)
				d.sharers |= 1 << uint(q)
				d.sharers |= 1 << uint(p)
				d.owner = -1
				newState = Shared
			}
			s.memoryData(p, home, kind, ls, ob)
		}
	default:
		// Clean: data comes from home memory.
		if write {
			s.invalidateSharers(p, line, d, home)
			d.sharers = 1 << uint(p)
			d.owner = int8(p)
			newState = Modified
		} else if d.sharers == 0 {
			// Illinois valid-exclusive: sole copy, loaded clean.
			d.sharers = 1 << uint(p)
			d.owner = int8(p)
			newState = Exclusive
		} else {
			d.sharers |= 1 << uint(p)
			newState = Shared
		}
		s.memoryData(p, home, kind, ls, ob)
	}

	victim, vstate, evicted := s.caches[p].insert(line, newState, s.seq<<4|histEvicted)
	if evicted {
		s.evict(p, victim, vstate)
	}
}

// memoryData accounts the line transfer home→p.
func (s *System) memoryData(p, home int, kind MissKind, ls, ob uint64) {
	s.serve(home, ls)
	if home != p {
		s.addData(kind, ls, true)
		s.traffic.RemoteOverhead += ob // data header
	} else {
		s.addData(kind, ls, false)
	}
}

// addData attributes data bytes to the miss-kind category, and to the
// true-sharing traffic metric when applicable.
func (s *System) addData(kind MissKind, n uint64, remote bool) {
	if kind == MissTrue {
		s.traffic.TrueSharingData += n
	}
	if !remote {
		s.traffic.LocalData += n
		return
	}
	switch kind {
	case MissCold:
		s.traffic.RemoteCold += n
	case MissTrue, MissFalse:
		s.traffic.RemoteShared += n
	default:
		s.traffic.RemoteCapacity += n
	}
}

// evict accounts the replacement of a victim line from p's cache, whose
// row insert has already marked evicted.
func (s *System) evict(p int, line uint64, vstate LineState) {
	home := s.home(line)
	d := &s.dir[line]
	ob := uint64(s.cfg.OverheadBytes)
	ls := uint64(s.cfg.LineSize)

	switch vstate {
	case Modified:
		d.sharers &^= 1 << uint(p)
		d.owner = -1
		if home != p {
			s.traffic.RemoteWriteback += ls
			s.traffic.RemoteOverhead += ob // writeback header
		} else {
			s.traffic.LocalData += ls
		}
	case Exclusive:
		d.sharers &^= 1 << uint(p)
		d.owner = -1
		if home != p {
			s.traffic.RemoteOverhead += ob // clean-exclusive notification
		}
	case Shared:
		// Replacement hint keeps the home's sharer list exact (§2.2);
		// without it the directory remembers a departed sharer.
		if !s.cfg.NoReplacementHints {
			d.sharers &^= 1 << uint(p)
			if home != p {
				s.traffic.RemoteOverhead += ob
			}
		}
	}
}

// Stats returns a snapshot of all counters.
func (s *System) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rollWindow()
	out := Stats{
		Procs:      make([]ProcStats, len(s.procs)),
		Traffic:    s.traffic,
		NodeServed: append([]uint64(nil), s.nodeServed...),
		NodePeak:   append([]uint64(nil), s.nodePeak...),
	}
	copy(out.Procs, s.procs)
	return out
}

// ResetStats zeroes all counters while leaving cache and directory state
// warm — used to "start measurements after initialization and cold start"
// for applications that run many time-steps (§2.2).
func (s *System) ResetStats() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.resetStatsLocked()
}

// resetStatsLocked is ResetStats for callers that hold mu or own the
// System exclusively (trace replay).
func (s *System) resetStatsLocked() {
	for i := range s.procs {
		s.procs[i] = ProcStats{}
	}
	s.traffic = Traffic{}
	for i := range s.nodeServed {
		s.nodeServed[i] = 0
		s.nodePeak[i] = 0
		s.nodeWindow[i] = 0
	}
}

// CheckInvariants validates protocol invariants across caches and
// directory; it is used by tests and returns a descriptive error on the
// first violation found.
func (s *System) CheckInvariants() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	lines := uint64(len(s.dir))
	holders := make([]uint64, lines) // line -> bitset of holding caches
	dirty := make([]uint64, lines)   // line -> bitset of M/E holders
	for p, c := range s.caches {
		present := 0
		for _, h := range c.row {
			if h&histMask == histPresent {
				present++
			}
		}
		if n := c.resident(); n != present {
			return fmt.Errorf("cache %d: %d lines present in its row, %d held by its sets or LRU list", p, present, n)
		}
		var err error
		c.forEach(func(line uint64, st LineState) {
			if err != nil {
				return
			}
			if line >= lines {
				err = fmt.Errorf("line %d: cached beyond directory (%d lines)", line, lines)
				return
			}
			holders[line] |= 1 << uint(p)
			if st == Modified || st == Exclusive {
				dirty[line] |= 1 << uint(p)
				if int(s.dir[line].owner) != p {
					err = fmt.Errorf("line %d: cache %d holds %v but directory owner is %d", line, p, st, s.dir[line].owner)
				}
			}
		})
		if err != nil {
			return err
		}
	}
	exact := !s.cfg.NoReplacementHints
	for line := range s.dir {
		d := s.dir[line]
		held := holders[line]
		if n := bits.OnesCount64(dirty[line]); n > 1 {
			return fmt.Errorf("line %d: %d exclusive/modified copies", line, n)
		}
		if d.sharers&held != held {
			return fmt.Errorf("line %d: directory sharers %b miss cache holders %b", line, d.sharers, held)
		}
		if exact && d.sharers != held {
			return fmt.Errorf("line %d: directory sharers %b != cache holders %b", line, d.sharers, held)
		}
		if d.owner >= 0 {
			st := s.caches[d.owner].peek(uint64(line))
			if st != Modified && st != Exclusive {
				return fmt.Errorf("line %d: directory owner %d holds state %v", line, d.owner, st)
			}
		}
	}
	return nil
}
