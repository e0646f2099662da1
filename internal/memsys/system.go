package memsys

import (
	"fmt"
	"math/bits"
)

// HomeFn maps a cache line index to the node whose local memory holds it.
// Data placement (§2.2: "data are distributed among the processing nodes
// according to the guidelines stated in each application") is decided by
// the allocator in package mach and communicated to memsys through this
// function. It is called while a reference is being processed and must
// not call back into the System.
type HomeFn func(line uint64) int

// dirEntry is one full-map directory entry. sharers is the exact set of
// caches holding the line (replacement hints keep it exact, §2.2); owner is
// the cache holding the line Exclusive or Modified, or -1.
type dirEntry struct {
	sharers uint64
	owner   int8
}

// System simulates the multiprocessor memory system. References reach it
// only through a Feed, which keeps the word write history for all the
// systems it drives and hands each reference over with its word's last
// write; a System is not safe for concurrent use. Its address-indexed
// tables are the directory and one row per processor, which is both that
// processor's cache (state and LRU stamp of each present line) and the
// history of each lost line that miss classification reads.
type System struct {
	cfg  Config
	home HomeFn

	// lineShift converts byte addresses to line indices (LineSize is a
	// validated power of two, so a shift replaces the division on the
	// hottest path).
	lineShift uint

	caches []*cache // each cache's row is its processor's line history
	dir    []dirEntry

	procs   []ProcStats
	traffic Traffic

	// The system's inclusion chain (see Feed): next is the next larger
	// member, nil for the largest, and first the smallest, which sees
	// every reference and so holds the reads and writes Stats reports.
	next, first *System

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
	// processed (the feed's seq when no clock is known, e.g. trace
	// replay).
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
	s.first = s
	s.nodeServed = make([]uint64, cfg.Procs)
	s.nodePeak = make([]uint64, cfg.Procs)
	s.nodeWindow = make([]uint64, cfg.Procs)
	s.nodeWinID = make([]uint64, cfg.Procs)
	return s, nil
}

// Config returns the configuration in effect (with defaults applied).
func (s *System) Config() Config { return s.cfg }

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

// access simulates reference seq of the feed's stream, packed as a
// trace event, and hands it on to the next member of the system's
// inclusion chain unless it stops here: a read hit or a write hit on a
// Modified line, which would change nothing in a larger member but LRU
// order and counts (see Feed). lastWrite is the packed last write to the reference's word
// before it (seq<<7 | writer+1, 0 when never written) and now the
// requestor's logical clock. The tables must cover the reference; the
// Feed sizes them.
func (s *System) access(e, lastWrite, seq, now uint64) {
	s.accessTime = now
	p, line, write := int(e>>1&0x7f), e>>8>>s.lineShift, e&1 == 1
	st := &s.procs[p]
	if write {
		st.Writes++
	} else {
		st.Reads++
	}

	c := s.caches[p]
	switch state := c.lookup(line); {
	case state == Modified || state != Invalid && !write:
		if s.next != nil {
			c.lru.touch(line) // the stamp the larger members read
		}
		return
	case state == Exclusive:
		// Illinois silent upgrade: the directory already records p as
		// owner, memory becomes stale without any message.
		c.setState(line, Modified)
	case state == Shared:
		s.upgrade(p, line, seq)
	default:
		kind := s.classify(p, line, lastWrite)
		st.Misses[kind]++
		s.fill(p, line, kind, write, seq)
	}
	if s.next != nil {
		s.next.access(e, lastWrite, seq, now)
	}
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

// classify determines the miss kind per the extended [DSR+93] scheme;
// lastWrite is the missing word's packed last write.
func (s *System) classify(p int, line, lastWrite uint64) MissKind {
	h := s.caches[p].row[line]
	if h == histNone {
		return MissCold
	}
	lostTime := h >> 4
	// A write by another processor can only happen while this processor
	// does not hold the line, so comparing against the loss time is exact.
	if lastWrite != 0 && int(lastWrite&0x7f)-1 != p && lastWrite>>7 >= lostTime {
		return MissTrue
	}
	if h&histMask == histInval {
		return MissFalse
	}
	return MissCapacity
}

// upgrade handles a write hit to a Shared line: invalidate all other
// sharers through the home directory, no data transfer.
func (s *System) upgrade(p int, line, seq uint64) {
	home := s.home(line)
	d := &s.dir[line]
	s.procs[p].Upgrades++
	if home != p {
		s.traffic.RemoteOverhead += uint64(s.cfg.OverheadBytes) // upgrade request
	}
	s.invalidateSharers(p, line, d, home, seq)
	d.sharers = 1 << uint(p)
	d.owner = int8(p)
	s.caches[p].setState(line, Modified)
}

// invalidateSharers sends invalidations to every sharer other than p.
// Invalidations travel home→sharer and acknowledgments sharer→requestor;
// the losses are stamped with seq, the invalidating reference's.
func (s *System) invalidateSharers(p int, line uint64, d *dirEntry, home int, seq uint64) {
	ob := uint64(s.cfg.OverheadBytes)
	for rem := d.sharers &^ (1 << uint(p)); rem != 0; rem &= rem - 1 {
		q := bits.TrailingZeros64(rem)
		// Without replacement hints the sharer list can be stale: the
		// invalidation and acknowledgment messages are still sent (that is
		// the cost the hints avoid) but a departed copy has nothing to
		// invalidate, and lose leaves its loss history as it is.
		s.caches[q].lose(line, seq<<4|histInval)
		if q != home {
			s.traffic.RemoteOverhead += ob // invalidation
		}
		s.traffic.RemoteOverhead += ob // acknowledgment (q != p by construction)
	}
}

// fill services a miss: obtains the line (from home memory or a remote
// dirty cache), adjusts directory and peer cache states, accounts traffic,
// inserts the line, and handles the victim. seq is the missing
// reference's, which stamps the losses it causes.
func (s *System) fill(p int, line uint64, kind MissKind, write bool, seq uint64) {
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
				s.caches[q].lose(line, seq<<4|histInval)
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
				s.caches[q].lose(line, seq<<4|histInval)
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
			s.invalidateSharers(p, line, d, home, seq)
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

	victim, vstate, evicted := s.caches[p].insert(line, newState, seq<<4|histEvicted)
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
	s.rollWindow()
	out := Stats{
		Procs:      make([]ProcStats, len(s.procs)),
		Traffic:    s.traffic,
		NodeServed: append([]uint64(nil), s.nodeServed...),
		NodePeak:   append([]uint64(nil), s.nodePeak...),
	}
	copy(out.Procs, s.procs)
	for p, st := range s.first.procs {
		out.Procs[p].Reads, out.Procs[p].Writes = st.Reads, st.Writes
	}
	return out
}

// ResetStats zeroes all counters while leaving cache and directory state
// warm — used to "start measurements after initialization and cold start"
// for applications that run many time-steps (§2.2).
func (s *System) ResetStats() {
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
