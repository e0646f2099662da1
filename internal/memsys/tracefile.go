package memsys

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"strconv"

	"splash2/internal/fault"
)

// BlockInfo describes one block of a v2 container, as recorded in the
// index footer: what it holds and where its bytes live.
type BlockInfo struct {
	// Marker flags a measurement-reset marker block (Proc is meaningless,
	// Events is 1).
	Marker bool
	// Proc is the processor whose events the block holds.
	Proc int
	// Epoch is the synchronization epoch the block was recorded in.
	Epoch uint64
	// Events is the number of events in the block.
	Events int
	// Offset is the block's byte offset in the file (at its tag byte).
	Offset int64
	// Size is the block's encoded length in bytes, tag included.
	Size int64
}

// OpenTraceFile opens an on-disk v2 trace for out-of-core streaming;
// Close releases the file. The injector (nil for none) supplies the chaos suite's fault points:
// "trace.read" covers the open and header read, "trace.read.footer" the
// index footer, and "trace.read.block:<i>" each block decode.
func OpenTraceFile(path string, inj *fault.Injector) (*Trace, error) {
	if err := inj.Do(context.Background(), "trace.read"); err != nil {
		return nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	tf, err := NewTraceFile(f, fi.Size(), inj)
	if err != nil {
		f.Close()
		return nil, err
	}
	tf.closer = f
	return tf, nil
}

// NewTraceFile opens the v2 container held by any ReaderAt (a file, an
// mmap, a byte slice), parsing its header and index footer. The input is
// untrusted: a corrupt or lying footer yields a descriptive error,
// never a panic or an allocation beyond the file's own size. Every
// summary the footer states is checked against its own block entries
// except the largest address, which only a full decode can prove; a
// whole-stream pass fails when the blocks end on a different maximum.
func NewTraceFile(r io.ReaderAt, size int64, inj *fault.Injector) (*Trace, error) {
	// Smallest legal file: 16-byte header, end tag, 7-byte empty footer,
	// 12-byte trailer.
	if size < 16+1+7+12 {
		return nil, fmt.Errorf("memsys: trace truncated: %d bytes is smaller than an empty v2 container (header, end tag, footer, trailer)", size)
	}
	hr := inj.Reader("trace.read", io.NewSectionReader(r, 0, size))
	var fixed [16]byte
	if _, err := io.ReadFull(hr, fixed[:]); err != nil {
		return nil, fmt.Errorf("memsys: trace truncated reading header: %w", err)
	}
	if magic := binary.LittleEndian.Uint32(fixed[0:4]); magic != traceMagicV2 {
		if magic == traceMagic {
			return nil, fmt.Errorf("memsys: trace is flat v1 format; convert to v2 for out-of-core streaming (trace convert)")
		}
		return nil, fmt.Errorf("memsys: bad trace magic %#x (want %#x)", magic, traceMagicV2)
	}
	lineSize := binary.LittleEndian.Uint32(fixed[4:8])
	if lineSize == 0 || lineSize > maxHomeLineSize {
		return nil, fmt.Errorf("memsys: corrupt trace: home line size %d out of range (1..%d)", lineSize, maxHomeLineSize)
	}
	nh := binary.LittleEndian.Uint64(fixed[8:16])
	if nh > uint64(size)/4 {
		return nil, fmt.Errorf("memsys: corrupt trace: home map of %d entries cannot fit in %d bytes", nh, size)
	}
	homes, err := readChunked[int32](hr, nh, "home map")
	if err != nil {
		return nil, err
	}
	firstBlockOff := int64(16 + 4*len(homes))

	var trailer [12]byte
	if _, err := r.ReadAt(trailer[:], size-12); err != nil {
		return nil, fmt.Errorf("memsys: trace truncated reading trailer: %w", err)
	}
	if magic := binary.LittleEndian.Uint32(trailer[8:12]); magic != traceIndexMagic {
		return nil, fmt.Errorf("memsys: corrupt trace: bad index magic %#x in trailer (want %#x)", magic, traceIndexMagic)
	}
	footerLen := binary.LittleEndian.Uint64(trailer[0:8])
	// Compare in the unsigned domain: a footer length with the top bit
	// set must not wrap negative and slip past the bound.
	avail := size - 12 - firstBlockOff - 1
	if avail < 0 || footerLen < 7 || footerLen > uint64(avail) {
		return nil, fmt.Errorf("memsys: corrupt trace: trailer footer length %d out of range", footerLen)
	}
	footerOff := size - 12 - int64(footerLen)
	if err := inj.Do(context.Background(), "trace.read.footer"); err != nil {
		return nil, err
	}
	fb := make([]byte, footerLen)
	if _, err := r.ReadAt(fb, footerOff); err != nil {
		return nil, fmt.Errorf("memsys: trace truncated reading index footer: %w", err)
	}
	fb = inj.Data("trace.read.footer", fb)
	fr := bytes.NewReader(fb)
	foot, err := parseV2Footer(fr)
	if err != nil {
		return nil, err
	}
	if fr.Len() != 0 {
		return nil, fmt.Errorf("memsys: corrupt trace: index footer has %d trailing bytes", fr.Len())
	}
	if foot.firstBlockOff != firstBlockOff {
		return nil, fmt.Errorf("memsys: corrupt trace: index footer says blocks start at %d, header ends at %d", foot.firstBlockOff, firstBlockOff)
	}

	index := make([]BlockInfo, len(foot.blocks))
	off := firstBlockOff
	for i, b := range foot.blocks {
		index[i] = BlockInfo{Marker: b.marker, Proc: b.proc, Epoch: b.epoch, Events: b.events, Offset: off, Size: b.size}
		off += b.size
	}
	if off+1 != footerOff {
		return nil, fmt.Errorf("memsys: corrupt trace: index footer block sizes end at %d, footer starts at %d", off+1, footerOff)
	}
	var end [1]byte
	if _, err := r.ReadAt(end[:], off); err != nil {
		return nil, fmt.Errorf("memsys: trace truncated reading end tag: %w", err)
	}
	if end[0] != v2TagEnd {
		return nil, fmt.Errorf("memsys: corrupt trace: block sequence ends with tag %d (want %d)", end[0], v2TagEnd)
	}
	if err := checkSummary(foot, index); err != nil {
		return nil, err
	}

	maxProc := 0
	if foot.nprocs > 0 {
		maxProc = foot.nprocs - 1
	}
	meta := TraceMeta{
		HomeLineSize: int(lineSize),
		MaxProc:      maxProc,
		MinProcs:     minProcs(maxProc, homes),
		MaxAddr:      foot.maxAddr,
		Refs:         foot.refs,
		Markers:      foot.markers,
		ProcRefs:     foot.procRefs,
	}
	return &Trace{
		r: r, size: size, inj: inj,
		homeLineSize: int(lineSize), homes: homes,
		meta: meta, index: index, footerOff: footerOff,
	}, nil
}

// checkSummary holds the footer's processor count and per-processor
// reference counts to its own block entries (the index alone, no block
// decoded), and an empty stream to a zero address maximum.
func checkSummary(foot v2Footer, index []BlockInfo) error {
	var procRefs [maxTraceProcs]uint64
	nprocs := 0
	for _, b := range index {
		if !b.Marker {
			procRefs[b.Proc] += uint64(b.Events)
			nprocs = max(nprocs, b.Proc+1)
		}
	}
	if foot.nprocs != nprocs {
		return fmt.Errorf("memsys: corrupt trace: index footer says %d processors, its blocks name %d", foot.nprocs, nprocs)
	}
	for p, n := range foot.procRefs {
		if n != procRefs[p] {
			return fmt.Errorf("memsys: corrupt trace: index footer counts %d references for processor %d, blocks hold %d", n, p, procRefs[p])
		}
	}
	if nprocs == 0 && foot.maxAddr != 0 {
		return fmt.Errorf("memsys: corrupt trace: index footer says maximum address %#x for a stream with no references", uint64(foot.maxAddr))
	}
	return nil
}

// Close releases the underlying file (no-op for a Trace built over
// a caller-owned ReaderAt).
func (tf *Trace) Close() error {
	if tf.closer == nil {
		return nil
	}
	return tf.closer.Close()
}

// Meta returns the stream summary straight from the index footer — no
// decode pass.
func (tf *Trace) Meta() TraceMeta { return tf.meta }

// Len returns the total stream length in events, markers included.
func (tf *Trace) Len() int { return int(tf.meta.Refs + tf.meta.Markers) }

// HomeFn adapts the recorded home map to a replay line size.
func (tf *Trace) HomeFn(lineSize int) HomeFn {
	return homeFn(tf.homes, tf.homeLineSize, lineSize)
}

// Index returns the block index (a copy).
func (tf *Trace) Index() []BlockInfo {
	return append([]BlockInfo(nil), tf.index...)
}

// blockReader decodes blocks of one Trace, reusing one read buffer
// and keeping the largest address decoded so far.
type blockReader struct {
	tf      *Trace
	raw     []byte
	rawOff  int64 // offset of raw[0] in the container
	maxAddr Addr
	// ahead > 0 makes a read fetch up to ahead bytes and serve the
	// following blocks from them. A streaming pass reads blocks in
	// container order, so from a file it costs one ReadAt per ahead
	// bytes instead of a system call per block (about 1 KB).
	ahead int
}

// streamAhead is a streaming pass's read size.
const streamAhead = 64 << 10

// read returns the size bytes at off, from raw when an earlier read
// fetched them.
func (br *blockReader) read(off int64, size int) ([]byte, error) {
	if off >= br.rawOff && off+int64(size) <= br.rawOff+int64(len(br.raw)) {
		return br.raw[off-br.rawOff:][:size], nil
	}
	n := max(size, min(br.ahead, int(br.tf.footerOff-off)))
	if cap(br.raw) < n {
		br.raw = make([]byte, n)
	}
	br.raw, br.rawOff = br.raw[:n], off
	if _, err := br.tf.r.ReadAt(br.raw, off); err != nil {
		br.raw = br.raw[:0]
		return nil, err
	}
	return br.raw[:size], nil
}

// decode reads and decodes block i, appending its packed events to dst.
// The block's own header must agree with the index footer entry — a
// block that lies about its contents is reported, not trusted.
func (br *blockReader) decode(i int, dst []uint64) ([]uint64, error) {
	tf := br.tf
	info := tf.index[i]
	if err := tf.inj.Do(context.Background(), "trace.read.block:"+strconv.Itoa(i)); err != nil {
		return dst, err
	}
	buf, err := br.read(info.Offset, int(info.Size))
	if err != nil {
		return dst, fmt.Errorf("memsys: trace truncated reading block %d (%d bytes at offset %d): %w", i, info.Size, info.Offset, err)
	}
	buf = tf.inj.Data("trace.read.block:"+strconv.Itoa(i), buf)
	r := bytes.NewReader(buf)
	tag, err := r.ReadByte()
	if err != nil {
		return dst, fmt.Errorf("memsys: trace truncated reading block %d tag: %w", i, err)
	}
	if tag != v2TagEvents && tag != v2TagMarker {
		return dst, fmt.Errorf("memsys: corrupt trace: unknown block tag %d (block %d)", tag, i)
	}
	if info.Marker {
		if tag != v2TagMarker {
			return dst, fmt.Errorf("memsys: corrupt trace: block %d has tag %d, index footer says marker", i, tag)
		}
		epoch, err := readUvarint(r, "marker epoch")
		if err != nil {
			return dst, err
		}
		if epoch != info.Epoch {
			return dst, fmt.Errorf("memsys: corrupt trace: block %d records epoch %d, index footer says %d", i, epoch, info.Epoch)
		}
		if r.Len() != 0 {
			return dst, fmt.Errorf("memsys: corrupt trace: marker block %d has %d trailing bytes", i, r.Len())
		}
		return append(dst, resetMarker), nil
	}
	if tag != v2TagEvents {
		return dst, fmt.Errorf("memsys: corrupt trace: block %d has tag %d, index footer says events", i, tag)
	}
	proc, epoch, count, payloadLen, err := readV2EventsHeader(r)
	if err != nil {
		return dst, err
	}
	if proc != info.Proc || epoch != info.Epoch || count != info.Events {
		return dst, fmt.Errorf("memsys: corrupt trace: block %d header (proc=%d epoch=%d events=%d) disagrees with index footer (proc=%d epoch=%d events=%d)",
			i, proc, epoch, count, info.Proc, info.Epoch, info.Events)
	}
	if r.Len() != payloadLen {
		return dst, fmt.Errorf("memsys: corrupt trace: block %d payload length %d, %d bytes remain after header", i, payloadLen, r.Len())
	}
	payload := buf[len(buf)-r.Len():]
	events, maxA, err := decodeV2Payload(payload, proc, count, dst)
	if err != nil {
		return dst, err
	}
	if maxA > tf.meta.MaxAddr {
		return dst, fmt.Errorf("memsys: corrupt trace: block %d address %#x beyond footer maximum %#x", i, uint64(maxA), uint64(tf.meta.MaxAddr))
	}
	br.maxAddr = max(br.maxAddr, maxA)
	return events, nil
}

// DecodeBlock decodes block i independently — no prefix decode, one
// bounded read — returning its packed events (a fresh slice).
func (tf *Trace) DecodeBlock(i int) ([]uint64, error) {
	if i < 0 || i >= len(tf.index) {
		return nil, fmt.Errorf("memsys: block %d out of range (trace has %d)", i, len(tf.index))
	}
	return (&blockReader{tf: tf}).decode(i, nil)
}

// decodeAhead is the depth of the streaming decode pipeline: how many
// decoded yields may sit between the decoder and the consumer. Peak
// memory stays bounded by (decodeAhead+1) decoded yields plus one
// encoded block, independent of trace length.
const decodeAhead = 4

// decodedBlock carries one decoded yield (or the error that stopped the
// decoder) from the decode goroutine to the consumer.
type decodedBlock struct {
	events []uint64
	err    error
}

// blocks streams the whole trace in index order — the TraceSource
// contract ReplayMulti, StackDistances and the sampled pass consume,
// and the one decode path of in-memory and on-disk traces alike.
// Consecutive blocks are coalesced into yields of up to replayBlockSize
// events (a longer block is a yield of its own), so a consumer's
// per-yield work does not depend on how short the recorded runs are.
// Decoding runs ahead of the consumer on a separate goroutine (bounded
// by decodeAhead), overlapping decode work with simulation; yields are
// delivered in index order from a fixed pool of reused buffers, so the
// consumer observes the exact event sequence of a serial decode loop and
// peak memory stays independent of trace length. A whole pass is also
// what proves the footer's largest address: the stream fails as corrupt
// when its blocks end on a different maximum.
func (tf *Trace) blocks(yield func(events []uint64) error) error {
	if len(tf.index) == 0 {
		return nil
	}
	// Size the buffer pool to the largest yield this trace holds, so
	// decode appends never reallocate mid-stream and a short trace does
	// not pay for a paper-scale pool: one buffer per yield, up to
	// decodeAhead+1.
	total, largest := 0, 0
	for _, info := range tf.index {
		total, largest = total+info.Events, max(largest, info.Events)
	}
	capEvents := max(largest, min(total, replayBlockSize))
	yields, n := 0, capEvents
	for _, info := range tf.index {
		if n+info.Events > capEvents {
			yields, n = yields+1, 0
		}
		n += info.Events
	}
	buffers := min(decodeAhead+1, yields+1)
	out := make(chan decodedBlock, decodeAhead)
	free := make(chan []uint64, buffers)
	for i := 0; i < buffers; i++ {
		free <- make([]uint64, 0, capEvents)
	}
	// stop tells the decoder an early consumer exit (yield error)
	// abandoned the stream; closing it unblocks any pending send.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		defer close(out)
		send := func(db decodedBlock) bool {
			select {
			case out <- db:
				return db.err == nil
			case <-stop:
				return false
			}
		}
		br := blockReader{tf: tf, ahead: streamAhead}
		var buf []uint64
		for i, info := range tf.index {
			if buf != nil && len(buf)+info.Events > cap(buf) {
				if !send(decodedBlock{events: buf}) {
					return
				}
				buf = nil
			}
			if buf == nil {
				select {
				case buf = <-free:
				case <-stop:
					return
				}
				buf = buf[:0]
			}
			var err error
			buf, err = br.decode(i, buf)
			if err == nil && i == len(tf.index)-1 && br.maxAddr != tf.meta.MaxAddr {
				err = fmt.Errorf("memsys: corrupt trace: blocks end with maximum address %#x, index footer says %#x", uint64(br.maxAddr), uint64(tf.meta.MaxAddr))
			}
			if err != nil {
				send(decodedBlock{err: err})
				return
			}
		}
		send(decodedBlock{events: buf})
	}()
	for db := range out {
		if db.err != nil {
			return db.err
		}
		if err := yield(db.events); err != nil {
			return err
		}
		free <- db.events
	}
	return nil
}
