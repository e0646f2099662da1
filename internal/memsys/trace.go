package memsys

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
)

// Trace is a recorded global reference interleaving — processor, address,
// read/write for every access — together with the home/sharing map of the
// address space that produced it.
//
// This makes the paper's methodology literal: §2.2 adopts PRAM timing
// precisely so that "the execution path of the program [does not] change"
// when architectural parameters are varied. Replaying one recorded trace
// against many cache configurations guarantees identical reference
// streams across a whole Figure-3 sweep, and is an order of magnitude
// faster than re-running the program, exactly like driving the cache
// simulator from a reference generator (Tango-Lite).
type Trace struct {
	// events packs one access per entry: addr<<8 | proc<<1 | write.
	events []uint64

	// spans is the per-processor run structure of events: the recorder's
	// merge produces one span per (epoch, processor) run, the v2 decoder
	// one per block, and the v1 decoder derives runs (and reset-marker
	// eras as epochs) by one scan, so the columnar v2 writer emits
	// epoch-stamped blocks without rediscovering the runs.
	spans []traceSpan

	// Home map of the recording machine, at its line granularity.
	homeLineSize int
	homes        []int32

	// One-pass stream summary (max processor, address range, per-proc
	// reference counts), computed lazily and cached: MaxProc, ReplayMulti
	// and StackDistances all consult it, and traces are shared read-only
	// across concurrent replay jobs, so the scan must run at most once.
	metaOnce sync.Once
	meta     TraceMeta
}

// traceSpan is one maximal run of consecutive events issued by a single
// processor within one synchronization epoch (proc == spanMarker flags a
// measurement-reset marker, n == 1).
type traceSpan struct {
	epoch uint64
	proc  int
	n     int
}

// spanMarker is the traceSpan proc value of a reset-marker span.
const spanMarker = -1

// TraceMeta is the one-pass summary of a reference stream: everything a
// replay needs to pre-size its tables without walking the events. For an
// in-memory Trace it is computed once and cached; a v2 trace file stores
// it in the index footer, so no decode pass is needed at all.
type TraceMeta struct {
	// HomeLineSize is the home-map granularity of the recording machine.
	HomeLineSize int
	// MaxProc is the highest processor id referencing memory (0 for an
	// empty trace).
	MaxProc int
	// MinProcs is the processor count the stream demands of a replay
	// machine: every referencing processor and every home node must exist.
	MinProcs int
	// MaxAddr is the highest byte address referenced.
	MaxAddr Addr
	// Refs counts memory references (reset markers excluded).
	Refs uint64
	// Markers counts measurement-reset markers.
	Markers uint64
	// ProcRefs is the per-processor reference count, indexed by id;
	// length MaxProc+1 (nil when Refs == 0).
	ProcRefs []uint64
}

// Len returns the total stream length in events, markers included.
func (m TraceMeta) Len() int { return int(m.Refs + m.Markers) }

// addrHint is the highest address a replay pass sizes its tables for
// at the first block: MaxAddr, capped at one word per reference. A
// TraceFile proves its footer's MaxAddr only when a pass ends, and
// every reference it counts is backed by a byte of file, so an
// overstated maximum cannot demand tables the blocks do not back.
// Passes grow past the hint as the stream shows higher addresses.
func (m TraceMeta) addrHint() Addr { return min(m.MaxAddr, Addr(m.Refs*WordBytes)) }

// TraceSource is a replayable reference stream: either an in-memory
// Trace or an out-of-core TraceFile streaming a v2 container from disk.
// ReplayMulti and StackDistances consume sources block by block, so
// their peak memory is O(block buffer + address space), never O(trace).
//
// The blocks method is unexported on purpose: a source must uphold
// in-package invariants (events yielded in exact recorded order, buffers
// valid only until the callback returns), so only memsys types implement
// it.
type TraceSource interface {
	// Meta returns the stream summary (cheap: cached or footer-backed).
	Meta() TraceMeta
	// HomeFn adapts the recorded home map to a replay line size.
	HomeFn(lineSize int) HomeFn
	// blocks calls yield for consecutive chunks of the event stream, in
	// recorded order. The slice is only valid until yield returns.
	blocks(yield func(events []uint64) error) error
}

// traceEvent packs an access. Processor id 127 is reserved as the
// measurement-reset marker (mach.Epoch boundaries replay as ResetStats).
func traceEvent(proc int, a Addr, write bool) uint64 {
	e := uint64(a)<<8 | uint64(proc)<<1
	if write {
		e |= 1
	}
	return e
}

// resetMarker flags an epoch boundary in the stream.
const resetMarker = uint64(127) << 1

func (t *Trace) decode(i int) (proc int, a Addr, write bool) {
	e := t.events[i]
	return int(e >> 1 & 0x7f), Addr(e >> 8), e&1 == 1
}

// Len returns the stream length in events, reset markers included.
func (t *Trace) Len() int { return len(t.events) }

// homeFn adapts a recorded home map to any replay line size: the home of
// a byte address is looked up at the recording granularity.
func homeFn(homes []int32, homeLineSize, lineSize int) HomeFn {
	return func(line uint64) int {
		recLine := line * uint64(lineSize) / uint64(homeLineSize)
		if recLine < uint64(len(homes)) {
			return int(homes[recLine])
		}
		return 0
	}
}

// HomeFn adapts the recorded home map to any replay line size.
func (t *Trace) HomeFn(lineSize int) HomeFn {
	return homeFn(t.homes, t.homeLineSize, lineSize)
}

// maxTraceProcs is the number of processor ids a trace can carry: the
// packed encoding has 7 bits for the processor, and id 127 is reserved
// as the measurement-reset marker, leaving ids 0..126.
const maxTraceProcs = 127

// epochRun is one contiguous span of a processor sub-stream recorded
// within a single synchronization epoch.
type epochRun struct {
	epoch uint64
	n     int
}

// procStream is one processor's private event sub-stream. Only its
// processor appends to it, so no lock guards the hot path. Storage is a
// chunk list of caller-donated batch buffers — RecordBatch takes
// ownership instead of copying, so capture does no per-event copy and no
// growth-doubling churn; runs carry the sync-epoch stamps the
// deterministic merge in Finish orders by.
type procStream struct {
	chunks [][]uint64
	runs   []epochRun
}

// Recorder accumulates a Trace. RecordBatch/RecordResetAt append whole
// per-processor batches to private sub-streams stamped with
// synchronization epochs; Finish merges them into one legal global order
// deterministically (by epoch, then processor, then local index), so
// recording the same deterministic program is byte-identical across runs
// and GOMAXPROCS settings. internal/mach's batched flush path drives it.
type Recorder struct {
	homeLineSize int
	streams      []procStream
	markers      []uint64 // sync epochs of reset markers, nondecreasing
}

// NewRecorder creates a recorder for a machine whose home map has the
// given line granularity.
func NewRecorder(homeLineSize int) *Recorder {
	return &Recorder{homeLineSize: homeLineSize, streams: make([]procStream, maxTraceProcs)}
}

// checkProc bounds-checks a processor id against the trace encoding.
func checkProc(proc int) {
	if proc < 0 || proc >= maxTraceProcs {
		panic(fmt.Sprintf("memsys: trace supports at most %d processors (ids 0-%d; id %d is the reset marker), got %d",
			maxTraceProcs, maxTraceProcs-1, maxTraceProcs, proc))
	}
}

// RecordBatch appends a batch of packed events (traceEvent encoding,
// all by proc) recorded within the given synchronization epoch to the
// processor's private sub-stream. Each simulated processor flushes only
// its own sub-stream, and quiescence at Finish is the caller's contract
// (internal/mach flushes every buffer at phase ends before finishing).
// Epochs must be nondecreasing per processor. The recorder takes
// ownership of the events slice — the caller must hand over a buffer it
// will not touch again.
func (r *Recorder) RecordBatch(proc int, epoch uint64, events []uint64) {
	checkProc(proc)
	if len(events) == 0 {
		return
	}
	st := &r.streams[proc]
	if k := len(st.runs) - 1; k >= 0 && st.runs[k].epoch == epoch {
		st.runs[k].n += len(events)
	} else {
		st.runs = append(st.runs, epochRun{epoch: epoch, n: len(events)})
	}
	st.chunks = append(st.chunks, events)
}

// RecordResetAt records a measurement-reset marker at a synchronization
// epoch boundary: the marker sorts before every batched event of that
// epoch (and after every event of earlier epochs) in the merged trace.
// It must be called from a quiescent point — all processors flushed and
// blocked (Machine.Epoch runs it inside the barrier, ResetStats between
// phases) — with epochs nondecreasing across calls.
func (r *Recorder) RecordResetAt(epoch uint64) {
	r.markers = append(r.markers, epoch)
}

// mergeRun is one sortable span of the deterministic merge: a span of
// a processor sub-stream starting at chunk ci offset off, or a reset
// marker (proc == -1, n == 0).
type mergeRun struct {
	epoch   uint64
	proc    int
	ci, off int
	n       int
}

// mergeBatches flattens the per-processor sub-streams and reset markers
// into one legal global event order: by sync epoch, then processor id
// (markers first), then local index. Cross-processor order inside one
// epoch is a choice — any order is legal there, because an epoch by
// construction contains no release→acquire edge — and this fixed choice
// is what makes recordings byte-identical across runs. Alongside the
// flat stream it returns the (epoch, proc) span structure — the merged
// runs are exactly the column blocks of the v2 container, so WriteV2
// can emit them without rediscovery.
func (r *Recorder) mergeBatches() ([]uint64, []traceSpan) {
	var runs []mergeRun
	total := 0
	for _, e := range r.markers {
		runs = append(runs, mergeRun{epoch: e, proc: -1})
		total++
	}
	for p := range r.streams {
		st := &r.streams[p]
		// The chunk list concatenates in run-list (arrival) order, so a
		// walk in that order pins each run's starting chunk position
		// before the sort below rearranges the runs.
		ci, off := 0, 0
		for _, run := range st.runs {
			runs = append(runs, mergeRun{epoch: run.epoch, proc: p, ci: ci, off: off, n: run.n})
			for skip := run.n; skip > 0; {
				take := len(st.chunks[ci]) - off
				if take > skip {
					take = skip
				}
				off += take
				skip -= take
				if off == len(st.chunks[ci]) {
					ci++
					off = 0
				}
			}
		}
		for _, ch := range st.chunks {
			total += len(ch)
		}
	}
	// Stable sort keeps a processor's same-epoch runs (multiple
	// buffer-full flushes between sync points) in append order.
	sort.SliceStable(runs, func(i, j int) bool {
		if runs[i].epoch != runs[j].epoch {
			return runs[i].epoch < runs[j].epoch
		}
		return runs[i].proc < runs[j].proc
	})
	out := make([]uint64, 0, total)
	var spans []traceSpan
	for _, run := range runs {
		if run.proc < 0 {
			out = append(out, resetMarker)
			spans = append(spans, traceSpan{epoch: run.epoch, proc: spanMarker, n: 1})
			continue
		}
		if k := len(spans) - 1; k >= 0 && spans[k].proc == run.proc && spans[k].epoch == run.epoch {
			spans[k].n += run.n
		} else {
			spans = append(spans, traceSpan{epoch: run.epoch, proc: run.proc, n: run.n})
		}
		st := &r.streams[run.proc]
		ci, off := run.ci, run.off
		for n := run.n; n > 0; {
			ch := st.chunks[ci]
			take := len(ch) - off
			if take > n {
				take = n
			}
			out = append(out, ch[off:off+take]...)
			off += take
			n -= take
			if off == len(ch) {
				ci++
				off = 0
			}
		}
	}
	return out, spans
}

// Finish merges the sub-streams, attaches the home map and returns the
// completed trace. The recorder must not be used afterwards.
func (r *Recorder) Finish(homes []int32) *Trace {
	tr := &Trace{homeLineSize: r.homeLineSize, homes: append([]int32(nil), homes...)}
	tr.events, tr.spans = r.mergeBatches()
	r.streams = nil
	return tr
}

// Meta returns the stream summary, computing the one-pass scan on first
// use and caching it (the trace is immutable once handed out, and may be
// consulted by many replay jobs concurrently).
func (t *Trace) Meta() TraceMeta {
	t.metaOnce.Do(func() {
		m := TraceMeta{HomeLineSize: t.homeLineSize}
		var procRefs [maxTraceProcs + 1]uint64
		for _, e := range t.events {
			if e == resetMarker {
				m.Markers++
				continue
			}
			m.Refs++
			p := int(e >> 1 & 0x7f)
			procRefs[p]++
			if p > m.MaxProc {
				m.MaxProc = p
			}
			if a := Addr(e >> 8); a > m.MaxAddr {
				m.MaxAddr = a
			}
		}
		if m.Refs > 0 {
			m.ProcRefs = append([]uint64(nil), procRefs[:m.MaxProc+1]...)
		}
		m.MinProcs = minProcs(m.MaxProc, t.homes)
		t.meta = m
	})
	return t.meta
}

// minProcs returns the processor count a stream demands of a replay
// machine: every referencing processor and every home node must exist.
func minProcs(maxProc int, homes []int32) int {
	need := maxProc + 1
	for _, h := range homes {
		if int(h)+1 > need {
			need = int(h) + 1
		}
	}
	return need
}

// grow extends a table indexed by word or line so that it covers index
// i, with new entries set to fill. Growth is geometric (at least 1.5×),
// so a stream touching ascending addresses re-copies it O(log n) times.
func grow[T any](table []T, i uint64, fill T) []T {
	n := max(i+1, uint64(len(table))+uint64(len(table))/2)
	out := make([]T, n)
	copy(out, table)
	for j := len(table); j < len(out); j++ {
		out[j] = fill
	}
	return out
}

// blockMaxAddr returns the largest address among a block's events (a
// reset marker carries address 0): one scan per block lets a pass size
// its tables before its per-event loop runs.
func blockMaxAddr(events []uint64) Addr {
	var m uint64
	for _, e := range events {
		m = max(m, e>>8)
	}
	return Addr(m)
}

// replayBlockSize is the event-block granularity of in-memory replay:
// each system consumes a whole block before the next system starts it,
// so its cache and directory state stay hot, and the per-block lastWrite
// buffer stays small enough to live in L2.
const replayBlockSize = 4096

// blocks yields the in-memory event stream in replayBlockSize chunks
// (no copy — the yielded slices alias the trace).
func (t *Trace) blocks(yield func(events []uint64) error) error {
	for lo := 0; lo < len(t.events); lo += replayBlockSize {
		hi := lo + replayBlockSize
		if hi > len(t.events) {
			hi = len(t.events)
		}
		if err := yield(t.events[lo:hi]); err != nil {
			return err
		}
	}
	return nil
}

// Replay feeds the stream through a fresh memory system with the given
// configuration and returns the resulting statistics.
func Replay(src TraceSource, cfg Config) (Stats, error) {
	out, err := ReplayMulti(src, []Config{cfg})
	if err != nil {
		return Stats{}, err
	}
	return out[0], nil
}

// ReplayMulti feeds the stream through one fresh memory system per
// configuration in a single fused pass: event decode, reset handling and
// the per-word write history happen once for the whole sweep instead of
// once per configuration — one Feed drives every system. The stream is
// consumed block by block, so peak memory is O(block buffer + address
// space) — never O(trace) — and a multi-gigabyte TraceFile replays
// out-of-core on a small box. When several CPUs are available the
// systems are sharded across them — each system is still driven by
// exactly one goroutine over the read-only stream, so the statistics are
// unchanged by the sharding. Configurations may differ in any parameter,
// line size included. The returned statistics are, position by position,
// exactly what per-configuration Replay calls would produce (the systems
// share nothing but the decoded stream and its write history).
func ReplayMulti(src TraceSource, cfgs []Config) ([]Stats, error) {
	if len(cfgs) == 0 {
		return nil, nil
	}
	meta := src.Meta()
	feed := NewFeed(meta.MaxProc)
	for _, cfg := range cfgs {
		cfg = cfg.WithDefaults()
		if cfg.Procs < meta.MinProcs {
			return nil, fmt.Errorf("memsys: trace needs ≥ %d processors, replay machine has %d", meta.MinProcs, cfg.Procs)
		}
		sys, err := New(cfg, src.HomeFn(cfg.LineSize))
		if err != nil {
			return nil, err
		}
		feed.Add(sys)
	}
	// The tables start sized for meta.addrHint and grow with the
	// addresses the stream shows.
	feed.Reserve(uint64(meta.addrHint().Word()) + 1)
	systems := feed.Systems()

	// Persistent workers over system shards: every worker replays each
	// block into its own systems, with a barrier per block so the shared
	// block and lastWrite buffers can be reused for the next one. System
	// i goes to worker i mod W: a sweep lists its configurations in order
	// of size, and its miss-heavy small caches or short lines would share
	// one worker if the shards were contiguous. Per system the stream is
	// still processed strictly in order, so results are unchanged by the
	// sharding.
	workers := min(runtime.GOMAXPROCS(0), len(systems))
	type blockWork struct{ events, lw []uint64 }
	var chans []chan blockWork
	var wg sync.WaitGroup
	if workers > 1 {
		for w := range workers {
			var subset []*System
			for i := w; i < len(systems); i += workers {
				subset = append(subset, systems[i])
			}
			ch := make(chan blockWork)
			chans = append(chans, ch)
			go func() {
				for work := range ch {
					drive(subset, work.events, work.lw, nil)
					wg.Done()
				}
			}()
		}
	}

	err := src.blocks(func(events []uint64) error {
		if chans == nil {
			return feed.Batch(events, nil)
		}
		lw, err := feed.history(events)
		if err != nil {
			return err
		}
		wg.Add(len(chans))
		for _, ch := range chans {
			ch <- blockWork{events, lw}
		}
		wg.Wait()
		return nil
	})
	for _, ch := range chans {
		close(ch)
	}
	if err != nil {
		return nil, err
	}

	out := make([]Stats, len(cfgs))
	for i, sys := range systems {
		out[i] = sys.Stats()
	}
	return out, nil
}

// traceMagic identifies the flat v1 serialized format.
const traceMagic = 0x53504c32 // "SPL2"

// WriteTo serializes the trace in the flat v1 format (little-endian
// binary): magic, line size, home count, homes, event count, events —
// 8 bytes per event. It implements io.WriterTo. WriteV2 produces the
// compact columnar container instead; ReadTrace accepts both.
func (t *Trace) WriteTo(w io.Writer) (int64, error) {
	var n int64
	write := func(v any) error {
		if err := binary.Write(w, binary.LittleEndian, v); err != nil {
			return err
		}
		n += int64(binary.Size(v))
		return nil
	}
	if err := write(uint32(traceMagic)); err != nil {
		return n, err
	}
	if err := write(uint32(t.homeLineSize)); err != nil {
		return n, err
	}
	if err := write(uint64(len(t.homes))); err != nil {
		return n, err
	}
	if err := write(t.homes); err != nil {
		return n, err
	}
	if err := write(uint64(len(t.events))); err != nil {
		return n, err
	}
	if err := write(t.events); err != nil {
		return n, err
	}
	return n, nil
}

// maxHomeLineSize bounds the recorded home-map granularity a trace file
// may claim; real machines use small powers of two, so anything beyond
// 1 MiB marks a corrupt header.
const maxHomeLineSize = 1 << 20

// readCount reads a length-prefix field, labelling truncation with the
// field name.
func readCount(r io.Reader, what string) (uint64, error) {
	var n uint64
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return 0, fmt.Errorf("memsys: trace truncated reading %s count: %w", what, err)
	}
	return n, nil
}

// readChunked reads n little-endian values in bounded chunks, so a
// corrupt count field in an untrusted trace file produces a descriptive
// truncation error instead of a gigantic up-front allocation (and the
// OOM or panic that follows).
func readChunked[T any](r io.Reader, n uint64, what string) ([]T, error) {
	const chunk = 1 << 16
	capHint := n
	if capHint > chunk {
		capHint = chunk
	}
	out := make([]T, 0, capHint)
	for read := uint64(0); read < n; {
		take := n - read
		if take > chunk {
			take = chunk
		}
		buf := make([]T, take)
		if err := binary.Read(r, binary.LittleEndian, buf); err != nil {
			return nil, fmt.Errorf("memsys: trace truncated reading %s (%d of %d decoded): %w", what, read, n, err)
		}
		out = append(out, buf...)
		read += take
	}
	return out, nil
}

// ReadTrace deserializes a trace written by WriteTo or WriteV2, sniffing
// the version from the magic. The input is treated as untrusted:
// truncated or corrupt files yield a descriptive error, never a panic or
// an unbounded allocation.
func ReadTrace(r io.Reader) (*Trace, error) {
	var magic uint32
	if err := binary.Read(r, binary.LittleEndian, &magic); err != nil {
		return nil, fmt.Errorf("memsys: trace truncated reading magic: %w", err)
	}
	switch magic {
	case traceMagic:
		return readTraceV1(r)
	case traceMagicV2:
		// A v2 container is parsed one way: buffer it (as many bytes as
		// the input really holds) and decode it through TraceFile.
		var buf bytes.Buffer
		buf.Write(binary.LittleEndian.AppendUint32(nil, magic))
		if _, err := buf.ReadFrom(r); err != nil {
			return nil, fmt.Errorf("memsys: trace truncated reading v2 container: %w", err)
		}
		tf, err := NewTraceFile(bytes.NewReader(buf.Bytes()), int64(buf.Len()), nil)
		if err != nil {
			return nil, err
		}
		return tf.load()
	}
	return nil, fmt.Errorf("memsys: bad trace magic %#x (want %#x or %#x)", magic, traceMagic, traceMagicV2)
}

// readTraceV1 decodes the flat v1 body following the magic.
func readTraceV1(r io.Reader) (*Trace, error) {
	var lineSize uint32
	if err := binary.Read(r, binary.LittleEndian, &lineSize); err != nil {
		return nil, fmt.Errorf("memsys: trace truncated reading home line size: %w", err)
	}
	if lineSize == 0 || lineSize > maxHomeLineSize {
		return nil, fmt.Errorf("memsys: corrupt trace: home line size %d out of range (1..%d)", lineSize, maxHomeLineSize)
	}
	nh, err := readCount(r, "home map")
	if err != nil {
		return nil, err
	}
	homes, err := readChunked[int32](r, nh, "home map")
	if err != nil {
		return nil, err
	}
	ne, err := readCount(r, "event")
	if err != nil {
		return nil, err
	}
	events, err := readChunked[uint64](r, ne, "events")
	if err != nil {
		return nil, err
	}
	return &Trace{homeLineSize: int(lineSize), homes: homes, events: events, spans: deriveSpans(events)}, nil
}

// MaxProc returns the highest processor id appearing in the trace.
func (t *Trace) MaxProc() int {
	return t.Meta().MaxProc
}
