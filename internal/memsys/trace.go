package memsys

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"io"
	"runtime"
	"slices"
	"sync"

	"splash2/internal/fault"
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
//
// A Trace is a v2 container (tracev2.go) behind an io.ReaderAt: the
// bytes a Recorder encoded, held in memory, or a file opened with
// OpenTraceFile. The header and index footer are parsed when it is
// opened; the event blocks stay encoded, and every pass decodes them as
// it streams, so ReplayMulti and StackDistances hold O(block buffer),
// never the stream — a multi-gigabyte paper-scale trace replays from
// disk. The footer also enables random access: DecodeBlock and
// EpochWindow decode any block or epoch range without touching the
// prefix.
//
// A Trace is safe for concurrent use: every pass and DecodeBlock call
// keeps its own buffers, over a ReaderAt that must be concurrency-safe,
// as *bytes.Reader and *os.File are. Replay jobs share one recording.
type Trace struct {
	r      io.ReaderAt
	size   int64
	closer io.Closer
	inj    *fault.Injector

	homeLineSize int
	homes        []int32
	meta         TraceMeta
	index        []BlockInfo
	footerOff    int64
}

// TraceFile is the name a Trace opened over a file goes by
// (OpenTraceFile, NewTraceFile); it is the same type.
type TraceFile = Trace

// TraceMeta is the one-pass summary of a reference stream: everything a
// replay needs to pre-size its tables without walking the events. A v2
// container stores it in the index footer, so no decode pass is needed.
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
// Trace proves its footer's MaxAddr only when a pass ends, and
// every reference it counts is backed by a byte of file, so an
// overstated maximum cannot demand tables the blocks do not back.
// Passes grow past the hint as the stream shows higher addresses.
func (m TraceMeta) addrHint() Addr { return min(m.MaxAddr, Addr(m.Refs*WordBytes)) }

// TraceSource is a replayable reference stream: a Trace, or an epoch
// window of one (EpochWindow). ReplayMulti and StackDistances consume
// sources block by block, so their peak memory is O(block buffer +
// address space), never O(trace).
//
// The blocks method is unexported on purpose: a source must uphold
// in-package invariants (events yielded in exact recorded order, buffers
// valid only until the callback returns), so only memsys types implement
// it.
type TraceSource interface {
	// Meta returns the stream summary (cheap: footer-backed).
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

// maxTraceProcs is the number of processor ids a trace can carry: the
// packed encoding has 7 bits for the processor, and id 127 is reserved
// as the measurement-reset marker, leaving ids 0..126.
const maxTraceProcs = 127

// Recorder captures a Trace as v2 bytes, encoding as it goes. Each
// processor keeps one pending run — its events of one synchronization
// epoch not yet encoded, at most v2BlockCap — and encodes it as an
// events block when the run fills or the processor's epoch moves on.
// Finish orders the blocks and reset markers into one legal global
// order deterministically (by epoch, then processor, markers first),
// so recording the same deterministic program is byte-identical across
// runs and GOMAXPROCS settings. internal/mach's batched flush path
// drives it; its baton serializes the calls.
type Recorder struct {
	homeLineSize int
	runs         []v2Run // the pending run of each processor id
	enc          v2Enc
}

// NewRecorder creates a recorder for a machine whose home map has the
// given line granularity.
func NewRecorder(homeLineSize int) *Recorder {
	r := &Recorder{homeLineSize: homeLineSize, runs: make([]v2Run, maxTraceProcs)}
	for p := range r.runs {
		r.runs[p].proc = p
	}
	return r
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
// processor's pending run. The events are copied, so the caller keeps
// its buffer. Each simulated processor flushes only its own events, and
// quiescence at Finish is the caller's contract (internal/mach flushes
// every buffer at phase ends before finishing). Epochs must be
// nondecreasing per processor.
func (r *Recorder) RecordBatch(proc int, epoch uint64, events []uint64) {
	checkProc(proc)
	if len(events) == 0 {
		return
	}
	run := &r.runs[proc]
	if run.epoch != epoch {
		r.enc.flush(run)
		run.epoch = epoch
	}
	r.enc.add(run, events)
}

// RecordResetAt records a measurement-reset marker at a synchronization
// epoch boundary: the marker sorts before every batched event of that
// epoch (and after every event of earlier epochs) in the merged trace.
// It must be called from a quiescent point — all processors flushed and
// blocked (Machine.Epoch runs it inside the barrier, ResetStats between
// phases) — with epochs nondecreasing across calls.
func (r *Recorder) RecordResetAt(epoch uint64) {
	r.enc.marker(epoch)
}

// Finish encodes the pending runs, orders every block by (epoch,
// processor) — markers first, and a processor's blocks of one epoch in
// recording order — attaches the home map and returns the recording.
// Cross-processor order inside one epoch is a choice: any order is legal
// there, because an epoch by construction contains no release→acquire
// edge, and this fixed one makes recordings byte-identical across runs.
// The recorder must not be used afterwards.
func (r *Recorder) Finish(homes []int32) *Trace {
	for p := range r.runs {
		r.enc.flush(&r.runs[p])
	}
	r.runs = nil
	key := func(b v2Block) int {
		if b.marker {
			return -1
		}
		return b.proc
	}
	slices.SortStableFunc(r.enc.blocks, func(a, b v2Block) int {
		return cmp.Or(cmp.Compare(a.epoch, b.epoch), cmp.Compare(key(a), key(b)))
	})
	tr, err := r.enc.container(r.homeLineSize, homes)
	if err != nil {
		panic(fmt.Sprintf("memsys: recorder built an unreadable container: %v", err))
	}
	return tr
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

// replayBlockSize is the event granularity of replay: Trace.blocks
// coalesces consecutive container blocks into yields of up to this many
// events. Each inclusion chain consumes a whole yield before the next
// chain starts it, so its cache and directory state stay hot, ReplayMulti's
// workers meet at one barrier per yield, and the per-yield lastWrite
// buffer stays small enough to live in L2.
const replayBlockSize = 4096

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
// space) — never O(trace) — and a multi-gigabyte trace on disk replays
// out-of-core on a small box. Configurations may differ in any
// parameter, line size included; those that differ only in cache size
// replay as one inclusion chain (see Feed). When several CPUs are
// available the chains are sharded across them — each chain is still
// driven by exactly one goroutine over the read-only stream, so the
// statistics are unchanged by the sharding. The returned statistics are,
// position by position, exactly what per-configuration Replay calls
// would produce.
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

	// Persistent workers over chain shards: every worker replays each
	// block into its own chains, with a barrier per block so the shared
	// block and lastWrite buffers can be reused for the next one. Chain i
	// goes to worker i mod W, so configurations a sweep lists in order
	// that cannot chain, such as its line sizes, spread over the workers.
	// A chain is driven by exactly one goroutine, strictly in stream
	// order, so results are unchanged by the sharding.
	workers := min(runtime.GOMAXPROCS(0), len(feed.heads))
	type blockWork struct {
		events, lw []uint64
		seq        uint64
	}
	var chans []chan blockWork
	var wg sync.WaitGroup
	if workers > 1 {
		for w := range workers {
			var subset []*System
			for i := w; i < len(feed.heads); i += workers {
				subset = append(subset, feed.heads[i])
			}
			ch := make(chan blockWork)
			chans = append(chans, ch)
			go func() {
				for work := range ch {
					drive(subset, work.events, work.lw, nil, work.seq)
					wg.Done()
				}
			}()
		}
	}

	err := src.blocks(func(events []uint64) error {
		if chans == nil {
			return feed.Batch(events, nil)
		}
		seq := feed.seq
		lw, err := feed.history(events)
		if err != nil {
			return err
		}
		wg.Add(len(chans))
		for _, ch := range chans {
			ch <- blockWork{events, lw, seq}
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
	for i, sys := range feed.Systems() {
		out[i] = sys.Stats()
	}
	return out, nil
}

// traceMagic identifies the flat v1 serialized format.
const traceMagic = 0x53504c32 // "SPL2"

// WriteTo serializes the trace in the flat v1 format (little-endian
// binary): magic, line size, home count, homes, event count, events —
// 8 bytes per event, decoded from the blocks in stream order. It
// implements io.WriterTo. WriteV2 copies the compact v2 container
// instead; ReadTrace accepts both.
func (t *Trace) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	buf := binary.LittleEndian.AppendUint32(nil, traceMagic)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(t.homeLineSize))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(t.homes)))
	for _, h := range t.homes {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(h))
	}
	buf = binary.LittleEndian.AppendUint64(buf, uint64(t.Len()))
	var n int64
	write := func(b []byte) error {
		k, err := bw.Write(b)
		n += int64(k)
		return err
	}
	if err := write(buf); err != nil {
		return n, err
	}
	if err := t.blocks(func(events []uint64) error {
		buf = buf[:0]
		for _, e := range events {
			buf = binary.LittleEndian.AppendUint64(buf, e)
		}
		return write(buf)
	}); err != nil {
		return n, err
	}
	return n, bw.Flush()
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
// an unbounded allocation. A v2 input is decoded once in full before it
// is returned, so every block has been proved; a v1 input is encoded to
// v2 as it is read.
func ReadTrace(r io.Reader) (*Trace, error) {
	var magic uint32
	if err := binary.Read(r, binary.LittleEndian, &magic); err != nil {
		return nil, fmt.Errorf("memsys: trace truncated reading magic: %w", err)
	}
	switch magic {
	case traceMagic:
		return readTraceV1(r)
	case traceMagicV2:
		// Buffer as many bytes as the input really holds.
		var buf bytes.Buffer
		buf.Write(binary.LittleEndian.AppendUint32(nil, magic))
		if _, err := buf.ReadFrom(r); err != nil {
			return nil, fmt.Errorf("memsys: trace truncated reading v2 container: %w", err)
		}
		tr, err := NewTraceFile(bytes.NewReader(buf.Bytes()), int64(buf.Len()), nil)
		if err != nil {
			return nil, err
		}
		if err := tr.blocks(func([]uint64) error { return nil }); err != nil {
			return nil, err
		}
		return tr, nil
	}
	return nil, fmt.Errorf("memsys: bad trace magic %#x (want %#x or %#x)", magic, traceMagic, traceMagicV2)
}

// readTraceV1 decodes the flat v1 body following the magic, encoding
// the events in file order through the recorder's block encoder. A v1
// stream carries no epochs: runs break at processor changes, and each
// reset marker opens a new era, numbered as the recorder numbers epochs
// — the marker sorts with the era that follows it.
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
	var enc v2Enc
	var run v2Run
	var era uint64
	// Read in bounded chunks, so a corrupt count produces a truncation
	// error instead of a gigantic up-front allocation.
	chunk := make([]uint64, min(ne, 1<<16))
	for read := uint64(0); read < ne; {
		events := chunk[:min(ne-read, uint64(len(chunk)))]
		if err := binary.Read(r, binary.LittleEndian, events); err != nil {
			return nil, fmt.Errorf("memsys: trace truncated reading events (%d of %d decoded): %w", read, ne, err)
		}
		for i := 0; i < len(events); {
			if events[i] == resetMarker {
				enc.flush(&run)
				era++
				enc.marker(era)
				i++
				continue
			}
			p := int(events[i] >> 1 & 0x7f)
			if p >= maxTraceProcs {
				return nil, fmt.Errorf("memsys: corrupt trace: event %d is by processor %d, the reset-marker id", read+uint64(i), p)
			}
			j := i + 1
			for j < len(events) && events[j] != resetMarker && int(events[j]>>1&0x7f) == p {
				j++
			}
			if p != run.proc || era != run.epoch {
				enc.flush(&run)
				run.proc, run.epoch = p, era
			}
			enc.add(&run, events[i:j])
			i = j
		}
		read += uint64(len(events))
	}
	enc.flush(&run)
	return enc.container(int(lineSize), homes)
}
