// Package mach simulates a shared-address-space multiprocessor as seen by
// an application: P processors with private caches over physically
// distributed memory, an allocator with explicit data placement, and the
// synchronization primitives the SPLASH-2 programs use (barriers, locks,
// and flag-based pauses).
//
// Timing is the paper's PRAM model (§2.2): every instruction and memory
// reference completes in one cycle, so each processor carries a logical
// clock advanced by its own instruction stream and joined at
// synchronization points. Deviations from ideal speedup therefore measure
// exactly load imbalance, serialization at critical sections, and the
// overhead of redundant computation and parallelism management (§4).
//
// Applications are ordinary Go code: each simulated processor runs in its
// own goroutine and issues explicit Read/Write/Instr/Flop events, and
// exactly one processor executes at a time, in logical-time order
// (sched.go). Shared data lives both in regular Go memory (for values)
// and in the simulated address space (for the reference stream), tied
// together by the typed array helpers in array.go.
package mach

import (
	"fmt"
	"math/bits"

	"splash2/internal/memsys"
)

// Addr is a byte address in the simulated shared address space.
type Addr = memsys.Addr

// MemModel selects how much of the memory system is simulated.
type MemModel int

const (
	// FullMem simulates caches, directory and traffic for every reference.
	FullMem MemModel = iota
	// CountOnly counts references but skips cache simulation. PRAM timing
	// is identical either way, so speedup and synchronization studies
	// (Figures 1–2, Table 1) run much faster under CountOnly.
	CountOnly
)

// Config describes a simulated machine.
type Config struct {
	Procs     int
	CacheSize int
	Assoc     int // memsys.FullyAssoc (0) = fully associative
	LineSize  int
	MemModel  MemModel
	// NoReplacementHints disables §2.2 replacement hints (ablation).
	NoReplacementHints bool
}

// MemConfig converts to the memory-system configuration.
func (c Config) MemConfig() memsys.Config {
	return memsys.Config{
		Procs:              c.Procs,
		CacheSize:          c.CacheSize,
		Assoc:              c.Assoc,
		LineSize:           c.LineSize,
		NoReplacementHints: c.NoReplacementHints,
	}.WithDefaults()
}

// Machine is one simulated multiprocessor.
type Machine struct {
	cfg    Config
	memCfg memsys.Config
	// feed drives the attached memory systems; every reference batch
	// feeds each in turn. A FullMem machine's own system is the first.
	feed *memsys.Feed

	// lineShift converts byte addresses to line indices (LineSize is a
	// validated power of two).
	lineShift uint

	// Allocator placement state, one entry per allocated line: home node
	// and shared flag. The length is the allocation high-water mark.
	homes  []int32
	shared []bool

	procs []*Proc

	baseTime []uint64
	base     []Counters

	// failure is the message of a panic or deadlock that ended a Run
	// (sched.go); the machine is unusable afterwards.
	failure string

	rec *memsys.Recorder
}

// New creates a machine. The zero values of cache parameters take the
// paper's defaults (32 procs, 1 MB 4-way 64 B-line caches, 8 B overhead).
func New(cfg Config) (*Machine, error) {
	mc := cfg.MemConfig()
	if err := mc.Validate(); err != nil {
		return nil, err
	}
	cfg.Procs = mc.Procs
	m := &Machine{cfg: cfg, memCfg: mc, lineShift: uint(bits.TrailingZeros(uint(mc.LineSize))), feed: memsys.NewFeed(cfg.Procs - 1)}
	m.procs = make([]*Proc, cfg.Procs)
	for i := range m.procs {
		m.procs[i] = &Proc{ID: i, m: m, baton: make(chan struct{}, 1)}
	}
	m.setCaptureFlags()
	m.baseTime = make([]uint64, cfg.Procs)
	m.base = make([]Counters, cfg.Procs)
	if cfg.MemModel == FullMem {
		if _, err := m.Attach(mc); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// Attach adds a memory system with configuration mc to the machine: from
// now on every reference batch feeds it. PRAM timing makes the execution path independent of the
// attachments (§2.2), so one execution can measure several cache
// configurations at once, each system's Stats equal to a standalone
// FullMem run's. Attach before the program's first reference (before
// building it) for the system to see the whole stream, and only while
// processors are quiescent. The system must share the machine's
// processor count and line size — allocation rounds to machine lines and
// the home map indexes them — or Attach returns an error.
func (m *Machine) Attach(mc memsys.Config) (*memsys.System, error) {
	mc = mc.WithDefaults()
	if mc.Procs != m.cfg.Procs || mc.LineSize != m.memCfg.LineSize {
		return nil, fmt.Errorf("mach: cannot attach a %d-processor %d B-line memory system to a %d-processor %d B-line machine",
			mc.Procs, mc.LineSize, m.cfg.Procs, m.memCfg.LineSize)
	}
	sys, err := memsys.New(mc, m.homeOf)
	if err != nil {
		return nil, err
	}
	m.feed.Add(sys)
	m.setCaptureFlags()
	return sys, nil
}

// MustNew is New for known-good configurations (tests, examples).
func MustNew(cfg Config) *Machine {
	m, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// Procs returns the number of processors.
func (m *Machine) Procs() int { return m.cfg.Procs }

// Config returns the machine configuration.
func (m *Machine) Config() Config { return m.cfg }

// LineSize returns the cache line size in bytes.
func (m *Machine) LineSize() int { return m.memCfg.LineSize }

// homeOf implements memsys.HomeFn.
func (m *Machine) homeOf(line uint64) int {
	if line < uint64(len(m.homes)) {
		return int(m.homes[line])
	}
	return 0
}

// isShared reports whether the line holding byte address a was allocated
// as shared data.
func (m *Machine) isShared(a Addr) bool {
	line := uint64(a) >> m.lineShift
	return line < uint64(len(m.shared)) && m.shared[line]
}

// reserveAllocated sizes the memory systems' tables exactly to the
// allocation high-water mark. Run and RunOne call it on entry, so all of
// a setup's allocations cost one table build; allocations made while a
// phase runs (Radiosity) are covered by the memory system's geometric
// on-demand growth at first touch.
func (m *Machine) reserveAllocated() {
	m.feed.Reserve(m.AllocatedWords())
}

// epochFork is the fork half of a phase's fork-join synchronization:
// everything executed before this point happens-before everything in the
// next phase, so every processor joins a fresh epoch strictly above all
// current ones. Must be called while all processors are quiescent.
func (m *Machine) epochFork() {
	next := m.maxEpoch() + 1
	for _, p := range m.procs {
		p.epoch = next
	}
}

// maxEpoch returns the highest processor epoch; processors must be
// quiescent.
func (m *Machine) maxEpoch() uint64 {
	var max uint64
	for _, p := range m.procs {
		if p.epoch > max {
			max = p.epoch
		}
	}
	return max
}

// StartRecording begins capturing the global reference stream; the
// resulting trace can be replayed through arbitrary cache configurations
// with memsys.Replay. Call before the parallel phase.
func (m *Machine) StartRecording() {
	m.rec = memsys.NewRecorder(m.memCfg.LineSize)
	m.setCaptureFlags()
}

// setCaptureFlags refreshes each processor's reference-capture state
// from the current memory-system/recorder attachments. Must be called
// whenever an attachment changes, while processors are quiescent.
func (m *Machine) setCaptureFlags() {
	for _, p := range m.procs {
		p.wantTimes = len(m.feed.Systems()) > 0
		p.capture = p.wantTimes || m.rec != nil
		p.evbase = uint64(p.ID) << 1
		if p.capture && p.evbuf == nil {
			p.evbuf = make([]uint64, 0, refBufCap)
		}
		if p.wantTimes && p.tmbuf == nil {
			p.tmbuf = make([]uint64, 0, refBufCap)
		}
	}
}

// flushAll drains every processor's reference buffer. Must be called
// while all processors are quiescent (between Run phases).
func (m *Machine) flushAll() {
	for _, p := range m.procs {
		p.flushRefs()
	}
}

// FinishRecording stops capture and returns the trace with the current
// home map attached. Returns nil if StartRecording was never called.
func (m *Machine) FinishRecording() *memsys.Trace {
	if m.rec == nil {
		return nil
	}
	m.flushAll()
	tr := m.rec.Finish(append([]int32(nil), m.homes...))
	m.rec = nil
	m.setCaptureFlags()
	return tr
}

// ResetStats restarts measurement: every memory system's counters are
// zeroed (caches stay warm) and each processor's counter/clock baseline
// is captured. It must be called while all processors are quiescent —
// use Epoch from inside a parallel phase.
func (m *Machine) ResetStats() {
	m.flushAll()
	m.feed.ResetStats()
	if m.rec != nil {
		// The marker lands one epoch above everything recorded so far and
		// ties with the next phase's events, where markers merge first.
		m.rec.RecordResetAt(m.maxEpoch() + 1)
	}
	for i, p := range m.procs {
		m.baseTime[i] = p.time
		m.base[i] = p.c
	}
}

// Epoch synchronizes all processors at b and restarts measurement, so that
// steady-state behaviour is measured "after initialization and cold start"
// (§2.2). Every processor must call it. The reset runs inside the barrier
// — executed by the last arriver while the others are still blocked — so
// every counter it reads is settled.
func (m *Machine) Epoch(p *Proc, b *Barrier) {
	b.wait(p, func(release, releaseEpoch uint64) {
		m.feed.ResetStats()
		if m.rec != nil {
			// Every participant flushed on arrival at an epoch below
			// releaseEpoch and departs at releaseEpoch, where markers
			// merge before events.
			m.rec.RecordResetAt(releaseEpoch)
		}
		for i, q := range m.procs {
			// All clocks join to the release time on departure.
			m.baseTime[i] = release
			m.base[i] = q.c
		}
	})
}

// Stats is a measurement snapshot relative to the last ResetStats.
type Stats struct {
	Procs []Counters
	// Mem is the FullMem machine's own memory system's statistics; zero
	// under CountOnly. Systems added with Attach report through their
	// own Stats.
	Mem memsys.Stats
	// Time is the PRAM execution time: the maximum logical clock advance
	// over all processors since the last ResetStats.
	Time uint64
}

// Snapshot captures current counters relative to the measurement baseline.
func (m *Machine) Snapshot() Stats {
	st := Stats{Procs: make([]Counters, len(m.procs))}
	for i, p := range m.procs {
		st.Procs[i] = p.c.sub(m.base[i])
		if d := p.time - m.baseTime[i]; d > st.Time {
			st.Time = d
		}
	}
	if m.cfg.MemModel == FullMem {
		st.Mem = m.feed.Systems()[0].Stats()
	}
	return st
}

// CheckInvariants proxies every attached memory system's invariant
// checker (tests).
func (m *Machine) CheckInvariants() error {
	for _, sys := range m.feed.Systems() {
		if err := sys.CheckInvariants(); err != nil {
			return err
		}
	}
	return nil
}

// Counters are the per-processor event counts behind Table 1.
type Counters struct {
	Instr        uint64 // total instructions (includes flops, reads, writes)
	Flops        uint64
	Reads        uint64
	Writes       uint64
	SharedReads  uint64
	SharedWrites uint64
	Barriers     uint64 // barrier episodes encountered by this processor
	Locks        uint64 // lock acquisitions
	Pauses       uint64 // flag-based synchronization waits
	SyncWait     uint64 // cycles spent waiting at synchronization points
}

func (c Counters) sub(b Counters) Counters {
	return Counters{
		Instr: c.Instr - b.Instr, Flops: c.Flops - b.Flops,
		Reads: c.Reads - b.Reads, Writes: c.Writes - b.Writes,
		SharedReads: c.SharedReads - b.SharedReads, SharedWrites: c.SharedWrites - b.SharedWrites,
		Barriers: c.Barriers - b.Barriers, Locks: c.Locks - b.Locks,
		Pauses: c.Pauses - b.Pauses, SyncWait: c.SyncWait - b.SyncWait,
	}
}

// Aggregate sums counters over processors.
func Aggregate(cs []Counters) Counters {
	var a Counters
	for _, c := range cs {
		a.Instr += c.Instr
		a.Flops += c.Flops
		a.Reads += c.Reads
		a.Writes += c.Writes
		a.SharedReads += c.SharedReads
		a.SharedWrites += c.SharedWrites
		a.Barriers += c.Barriers
		a.Locks += c.Locks
		a.Pauses += c.Pauses
		a.SyncWait += c.SyncWait
	}
	return a
}

// String summarizes a stats snapshot for debugging.
func (s Stats) String() string {
	a := Aggregate(s.Procs)
	return fmt.Sprintf("T=%d instr=%d flops=%d reads=%d writes=%d", s.Time, a.Instr, a.Flops, a.Reads, a.Writes)
}
