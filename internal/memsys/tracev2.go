package memsys

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
)

// This file implements the columnar v2 trace container. The flat v1
// format spends 8 bytes on every event; paper-scale inputs (Barnes 16K,
// FFT 64K, Radix 1M keys) produce reference streams where that — plus
// ReplayMulti's equal-sized lastWrite side array — is the binding memory
// constraint. The v2 container exploits the structure PR 5's batched
// capture already exposes: the stream is a sequence of per-processor
// epoch runs, so the processor id is block metadata instead of a
// per-event field, the read/write flags compress to a bitmap column,
// and the address column — highly sequential within one processor's
// run — delta+varint encodes to a byte or two per reference.
//
// On-disk layout (all varints are encoding/binary uvarint/varint):
//
//	header   magic "SPL3" u32 · homeLineSize u32 · nhomes u64 · homes []int32
//	blocks   a sequence of tagged blocks:
//	         tag 0 (events): proc u8 · epoch uvarint · count uvarint ·
//	             payloadLen uvarint · payload
//	             payload = write bitmap (⌈count/8⌉ bytes, bit i = event i
//	             is a write) · addresses (first absolute uvarint, then
//	             zigzag-varint deltas)
//	         tag 1 (marker): epoch uvarint — a measurement-reset marker
//	         tag 2 (end): terminates the block sequence
//	footer   version uvarint (2) · firstBlockOff · nprocs · maxAddr ·
//	         refs · markers · per-proc ref counts (nprocs uvarints) ·
//	         nblocks · per-block entries (tag u8 · [proc u8] ·
//	         epochDelta uvarint · [count uvarint] · size uvarint)
//	trailer  footerLen u64 · index magic "SP2I" u32
//
// Blocks decode independently: each header carries everything the
// payload needs, so a reader can decode blocks in parallel or decode
// only an epoch window selected from the footer. The trailer is
// fixed-size, so a ReaderAt finds the footer without scanning, and the
// footer's per-block sizes turn into absolute offsets by prefix sum —
// random access with no prefix decode. A recording is these bytes: the
// Recorder encodes them as it captures, a v1 import encodes them in file
// order, and Trace is their one reader, in memory or on disk. Epochs
// are nondecreasing across blocks (the recorder's merge order), which is
// why the footer stores deltas.
//
// Forward compatibility: the footer leads with a version; readers must
// reject versions they don't know. New per-block information must go in
// new tags (readers reject unknown tags) or a new version, never by
// appending to existing structures.

// traceMagicV2 identifies the columnar v2 container ("SPL3").
const traceMagicV2 = 0x53504c33

// TraceMagicV1 and TraceMagicV2 expose the two container magics (the
// file's first four little-endian bytes) so tools can sniff a format
// without attempting a decode.
const (
	TraceMagicV1 = traceMagic
	TraceMagicV2 = traceMagicV2
)

// traceIndexMagic ends a v2 file ("SP2I" little-endian); a ReaderAt
// checks it before trusting the trailing footer length.
const traceIndexMagic = 0x49325053

// v2 block tags.
const (
	v2TagEvents = 0
	v2TagMarker = 1
	v2TagEnd    = 2
)

// v2BlockCap is the encoder's events-per-block cap: large enough to
// amortize headers to noise, small enough that one decoded block plus
// its lastWrite buffer stays cache-resident during streaming replay.
const v2BlockCap = 4096

// v2MaxBlockEvents bounds the event count an untrusted block header may
// claim, capping the per-block allocation a corrupt file can demand.
const v2MaxBlockEvents = 1 << 20

// maxTraceAddr is the largest encodable byte address: the packed event
// word keeps 56 bits for the address.
const maxTraceAddr = 1<<56 - 1

// v2MaxPayload bounds an events-block payload: the write bitmap plus at
// most binary.MaxVarintLen64 bytes per address.
func v2MaxPayload(count int) int {
	return (count+7)/8 + count*binary.MaxVarintLen64
}

// v2MaxBlockSize bounds a whole events block (tag, proc, three varint
// header fields, payload) for validating untrusted footer entries.
func v2MaxBlockSize(count int) int64 {
	return int64(2 + 3*binary.MaxVarintLen64 + v2MaxPayload(count))
}

// v2MinBlockSize is the smallest events block that can hold count
// events: five header bytes, the write bitmap and at least one byte per
// address. It makes every event a footer claims cost a byte of file.
func v2MinBlockSize(count int) int64 {
	return int64(5 + (count+7)/8 + count)
}

// v2Block describes one encoded block — the unit of the index footer.
type v2Block struct {
	marker bool
	proc   int
	epoch  uint64
	events int    // 1 for a marker
	size   int64  // encoded bytes, tag included
	data   []byte // the encoded block, while an encoder holds it
}

// v2Run is one processor's run of events within one epoch that is not
// yet encoded: at most v2BlockCap events.
type v2Run struct {
	proc   int
	epoch  uint64
	events []uint64
}

// v2Enc encodes events blocks and markers, keeping each block's bytes
// in an allocation of its own size, so a long recording never regrows
// one buffer, together with its index entry and the stream summary the
// footer states. Both ways a
// recording is made go through it: the Recorder, which orders the
// blocks by (epoch, processor) at Finish, and the v1 import, which
// keeps them in file order.
type v2Enc struct {
	blocks       []v2Block
	buf, scratch []byte
	procRefs     [maxTraceProcs]uint64
	maxAddr      Addr
}

// add appends events to a pending run, encoding it as a block each time
// it reaches v2BlockCap.
func (e *v2Enc) add(run *v2Run, events []uint64) {
	for len(events) > 0 {
		if run.events == nil {
			run.events = make([]uint64, 0, v2BlockCap)
		}
		take := min(v2BlockCap-len(run.events), len(events))
		run.events = append(run.events, events[:take]...)
		events = events[take:]
		if len(run.events) == v2BlockCap {
			e.flush(run)
		}
	}
}

// flush encodes a pending run as one events block and empties it.
func (e *v2Enc) flush(run *v2Run) {
	if len(run.events) == 0 {
		return
	}
	var maxA Addr
	e.buf, e.scratch, maxA = appendV2Events(e.buf[:0], e.scratch, run.proc, run.epoch, run.events)
	e.blocks = append(e.blocks, v2Block{proc: run.proc, epoch: run.epoch, events: len(run.events),
		size: int64(len(e.buf)), data: bytes.Clone(e.buf)})
	e.procRefs[run.proc] += uint64(len(run.events))
	e.maxAddr = max(e.maxAddr, maxA)
	run.events = run.events[:0]
}

// marker encodes a measurement-reset marker block.
func (e *v2Enc) marker(epoch uint64) {
	data := binary.AppendUvarint([]byte{v2TagMarker}, epoch)
	e.blocks = append(e.blocks, v2Block{marker: true, epoch: epoch, events: 1, size: int64(len(data)), data: data})
}

// container lays the encoded blocks out, in the order of e.blocks,
// between the header and the index footer, and opens the result as an
// in-memory Trace. The blocks are not copied: the container reads
// through to them. The encoder is emptied.
func (e *v2Enc) container(homeLineSize int, homes []int32) (*Trace, error) {
	var m TraceMeta
	for p, n := range e.procRefs {
		if n > 0 {
			m.MaxProc = p
		}
		m.Refs += n
	}
	if m.Refs > 0 {
		m.ProcRefs = e.procRefs[:m.MaxProc+1]
	}
	m.MaxAddr = e.maxAddr
	head := binary.LittleEndian.AppendUint32(nil, traceMagicV2)
	head = binary.LittleEndian.AppendUint32(head, uint32(homeLineSize))
	head = binary.LittleEndian.AppendUint64(head, uint64(len(homes)))
	for _, h := range homes {
		head = binary.LittleEndian.AppendUint32(head, uint32(h))
	}
	parts := [][]byte{head}
	for _, b := range e.blocks {
		if b.marker {
			m.Markers++
		}
		parts = append(parts, b.data)
	}
	footer := appendV2Footer([]byte{v2TagEnd}, int64(len(head)), m, e.blocks)
	footer = binary.LittleEndian.AppendUint64(footer, uint64(len(footer)-1))
	parts = append(parts, binary.LittleEndian.AppendUint32(footer, traceIndexMagic))
	*e = v2Enc{}
	r := newSegments(parts)
	return NewTraceFile(r, r.size(), nil)
}

// segments reads byte slices laid end to end as one io.ReaderAt, so an
// in-memory container keeps each block where the encoder put it.
type segments struct {
	parts [][]byte
	offs  []int64 // offs[i] is where parts[i] starts; the last entry is the size
}

func newSegments(parts [][]byte) *segments {
	s := &segments{parts: parts, offs: make([]int64, len(parts)+1)}
	for i, p := range parts {
		s.offs[i+1] = s.offs[i] + int64(len(p))
	}
	return s
}

func (s *segments) size() int64 { return s.offs[len(s.parts)] }

// ReadAt implements io.ReaderAt; it is safe for concurrent use.
func (s *segments) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("memsys: negative offset %d", off)
	}
	// The part holding off: the last whose start is at or before it.
	i, _ := slices.BinarySearch(s.offs, off+1)
	n := 0
	for i--; n < len(p) && i < len(s.parts); i++ {
		n += copy(p[n:], s.parts[i][off+int64(n)-s.offs[i]:])
	}
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// appendV2Events encodes one events block and returns it with the
// block's largest address. Addresses delta-encode against the block's
// own first address only, so the block decodes with no context from its
// predecessors.
func appendV2Events(buf, scratch []byte, proc int, epoch uint64, events []uint64) (out, outScratch []byte, maxA Addr) {
	payload := scratch[:0]
	nb := (len(events) + 7) / 8
	for i := 0; i < nb; i++ {
		payload = append(payload, 0)
	}
	for i, e := range events {
		payload[i>>3] |= byte(e&1) << (i & 7)
	}
	var prev uint64
	for i, e := range events {
		a := e >> 8
		if i == 0 {
			payload = binary.AppendUvarint(payload, a)
		} else {
			payload = binary.AppendVarint(payload, int64(a)-int64(prev))
		}
		prev = a
		maxA = max(maxA, Addr(a))
	}
	buf = append(buf, v2TagEvents, byte(proc))
	buf = binary.AppendUvarint(buf, epoch)
	buf = binary.AppendUvarint(buf, uint64(len(events)))
	buf = binary.AppendUvarint(buf, uint64(len(payload)))
	buf = append(buf, payload...)
	return buf, payload, maxA
}

// appendV2Footer encodes the index footer (everything between the end
// tag and the fixed trailer).
func appendV2Footer(buf []byte, firstBlockOff int64, m TraceMeta, blocks []v2Block) []byte {
	buf = binary.AppendUvarint(buf, 2)
	buf = binary.AppendUvarint(buf, uint64(firstBlockOff))
	nprocs := 0
	if m.Refs > 0 {
		nprocs = m.MaxProc + 1
	}
	buf = binary.AppendUvarint(buf, uint64(nprocs))
	buf = binary.AppendUvarint(buf, uint64(m.MaxAddr))
	buf = binary.AppendUvarint(buf, m.Refs)
	buf = binary.AppendUvarint(buf, m.Markers)
	for p := 0; p < nprocs; p++ {
		buf = binary.AppendUvarint(buf, m.ProcRefs[p])
	}
	buf = binary.AppendUvarint(buf, uint64(len(blocks)))
	var prevEpoch uint64
	for _, b := range blocks {
		if b.marker {
			buf = append(buf, v2TagMarker)
		} else {
			buf = append(buf, v2TagEvents, byte(b.proc))
		}
		buf = binary.AppendUvarint(buf, b.epoch-prevEpoch)
		prevEpoch = b.epoch
		if !b.marker {
			buf = binary.AppendUvarint(buf, uint64(b.events))
		}
		buf = binary.AppendUvarint(buf, uint64(b.size))
	}
	return buf
}

// WriteV2 writes the trace's v2 container. A trace is its container, so
// this is a byte copy; ReadTrace accepts the result.
func (t *Trace) WriteV2(w io.Writer) (int64, error) {
	return io.Copy(w, io.NewSectionReader(t.r, 0, t.size))
}

// decodeV2Payload decodes one events-block payload, appending the
// packed events to dst. The payload must be exactly consumed. Returns
// the grown slice and the block's largest address. Deltas of up to
// three bytes — all but a handful in recorded traces, whose deltas are
// one, two and three bytes long in about equal shares — are decoded
// inline, the write bitmap is applied in a pass of its own, and the
// 56-bit bound is checked once, on the block's largest address: an
// address past it is rejected wherever it occurs.
func decodeV2Payload(payload []byte, proc, count int, dst []uint64) ([]uint64, Addr, error) {
	nb := (count + 7) / 8
	if len(payload) < nb {
		return dst, 0, fmt.Errorf("memsys: corrupt trace: block payload %d bytes, write bitmap alone needs %d", len(payload), nb)
	}
	bitmap := payload[:nb]
	rest := payload[nb:]
	dst = slices.Grow(dst, count)
	out := dst[len(dst) : len(dst)+count]
	base := uint64(proc) << 1
	var addr, maxA uint64
	if count > 0 {
		v, n := binary.Uvarint(rest)
		if n <= 0 {
			return dst, 0, fmt.Errorf("memsys: corrupt trace: block base address varint truncated or overlong")
		}
		rest = rest[n:]
		addr, maxA = v, v
		out[0] = addr<<8 | base
	}
	for i := 1; i < count; i++ {
		var ux uint64 // the zigzag-encoded delta
		switch {
		case len(rest) > 0 && rest[0] < 0x80:
			ux, rest = uint64(rest[0]), rest[1:]
		case len(rest) > 1 && rest[1] < 0x80:
			ux, rest = uint64(rest[0]&0x7f)|uint64(rest[1])<<7, rest[2:]
		case len(rest) > 2 && rest[2] < 0x80:
			ux, rest = uint64(rest[0]&0x7f)|uint64(rest[1]&0x7f)<<7|uint64(rest[2])<<14, rest[3:]
		default:
			v, n := binary.Uvarint(rest)
			if n <= 0 {
				return dst, 0, fmt.Errorf("memsys: corrupt trace: address delta varint truncated or overlong (event %d of %d)", i, count)
			}
			ux, rest = v, rest[n:]
		}
		addr += uint64(int64(ux>>1) ^ -int64(ux&1))
		maxA = max(maxA, addr)
		out[i] = addr<<8 | base
	}
	if maxA > maxTraceAddr {
		return dst, 0, fmt.Errorf("memsys: corrupt trace: address %#x exceeds the 56-bit event encoding", maxA)
	}
	if len(rest) != 0 {
		return dst, 0, fmt.Errorf("memsys: corrupt trace: block payload has %d bytes beyond its %d events", len(rest), count)
	}
	for i := range out {
		out[i] |= uint64(bitmap[i>>3] >> (i & 7) & 1)
	}
	return dst[:len(dst)+count], Addr(maxA), nil
}

// readUvarint reads one varint field from an untrusted stream,
// labelling truncation/overflow with the field name.
func readUvarint(s io.ByteReader, what string) (uint64, error) {
	v, err := binary.ReadUvarint(s)
	if err != nil {
		return 0, fmt.Errorf("memsys: trace truncated reading %s: %w", what, err)
	}
	return v, nil
}

// readV2EventsHeader reads and validates the header fields of an events
// block (after the tag): proc, epoch, count, payloadLen. Trace's block
// decode checks them against the index footer.
func readV2EventsHeader(s io.ByteReader) (proc int, epoch uint64, count, payloadLen int, err error) {
	b, err := s.ReadByte()
	if err != nil {
		return 0, 0, 0, 0, fmt.Errorf("memsys: trace truncated reading block processor: %w", err)
	}
	proc = int(b)
	if proc >= maxTraceProcs {
		return 0, 0, 0, 0, fmt.Errorf("memsys: corrupt trace: block processor %d out of range (0-%d)", proc, maxTraceProcs-1)
	}
	epoch, err = readUvarint(s, "block epoch")
	if err != nil {
		return 0, 0, 0, 0, err
	}
	c, err := readUvarint(s, "block event count")
	if err != nil {
		return 0, 0, 0, 0, err
	}
	if c == 0 || c > v2MaxBlockEvents {
		return 0, 0, 0, 0, fmt.Errorf("memsys: corrupt trace: block event count %d out of range (1-%d)", c, v2MaxBlockEvents)
	}
	count = int(c)
	pl, err := readUvarint(s, "block payload length")
	if err != nil {
		return 0, 0, 0, 0, err
	}
	if pl < uint64((count+7)/8+1) || pl > uint64(v2MaxPayload(count)) {
		return 0, 0, 0, 0, fmt.Errorf("memsys: corrupt trace: block payload length %d implausible for %d events", pl, count)
	}
	payloadLen = int(pl)
	return proc, epoch, count, payloadLen, nil
}

// v2Footer is the parsed index footer.
type v2Footer struct {
	firstBlockOff int64
	nprocs        int
	maxAddr       Addr
	refs, markers uint64
	procRefs      []uint64
	blocks        []v2Block
}

// parseV2Footer reads the footer from an untrusted stream. Counts are
// cross-validated (blocks against refs+markers, each block's events
// against its size) so a lying footer cannot demand allocations beyond
// what its own byte stream backs.
func parseV2Footer(s io.ByteReader) (v2Footer, error) {
	var f v2Footer
	version, err := readUvarint(s, "footer version")
	if err != nil {
		return f, err
	}
	if version != 2 {
		return f, fmt.Errorf("memsys: corrupt trace: unsupported footer version %d (want 2)", version)
	}
	off, err := readUvarint(s, "footer first-block offset")
	if err != nil {
		return f, err
	}
	f.firstBlockOff = int64(off)
	np, err := readUvarint(s, "footer processor count")
	if err != nil {
		return f, err
	}
	if np > maxTraceProcs {
		return f, fmt.Errorf("memsys: corrupt trace: footer processor count %d out of range (0-%d)", np, maxTraceProcs)
	}
	f.nprocs = int(np)
	ma, err := readUvarint(s, "footer max address")
	if err != nil {
		return f, err
	}
	if ma > maxTraceAddr {
		return f, fmt.Errorf("memsys: corrupt trace: footer max address %#x exceeds the 56-bit event encoding", ma)
	}
	f.maxAddr = Addr(ma)
	if f.refs, err = readUvarint(s, "footer reference count"); err != nil {
		return f, err
	}
	if f.markers, err = readUvarint(s, "footer marker count"); err != nil {
		return f, err
	}
	if f.nprocs > 0 {
		f.procRefs = make([]uint64, f.nprocs)
		var sum uint64
		for p := range f.procRefs {
			if f.procRefs[p], err = readUvarint(s, "footer per-processor reference count"); err != nil {
				return f, err
			}
			sum += f.procRefs[p]
		}
		if sum != f.refs {
			return f, fmt.Errorf("memsys: corrupt trace: footer per-processor counts sum to %d, reference count says %d", sum, f.refs)
		}
	} else if f.refs != 0 {
		return f, fmt.Errorf("memsys: corrupt trace: footer claims %d references but no processors", f.refs)
	}
	nb, err := readUvarint(s, "footer block count")
	if err != nil {
		return f, err
	}
	if nb > f.refs+f.markers {
		return f, fmt.Errorf("memsys: corrupt trace: footer block count %d exceeds %d events", nb, f.refs+f.markers)
	}
	var prevEpoch uint64
	var events, markers uint64
	for i := uint64(0); i < nb; i++ {
		tag, err := s.ReadByte()
		if err != nil {
			return f, fmt.Errorf("memsys: trace truncated reading footer block entry %d: %w", i, err)
		}
		var b v2Block
		switch tag {
		case v2TagEvents:
			pb, err := s.ReadByte()
			if err != nil {
				return f, fmt.Errorf("memsys: trace truncated reading footer block entry %d: %w", i, err)
			}
			b.proc = int(pb)
			if b.proc >= f.nprocs {
				return f, fmt.Errorf("memsys: corrupt trace: footer block %d names processor %d beyond count %d", i, b.proc, f.nprocs)
			}
		case v2TagMarker:
			b.marker = true
		default:
			return f, fmt.Errorf("memsys: corrupt trace: footer block %d has unknown tag %d", i, tag)
		}
		d, err := readUvarint(s, "footer block epoch delta")
		if err != nil {
			return f, err
		}
		b.epoch = prevEpoch + d
		prevEpoch = b.epoch
		if b.marker {
			b.events = 1
			markers++
		} else {
			c, err := readUvarint(s, "footer block event count")
			if err != nil {
				return f, err
			}
			if c == 0 || c > v2MaxBlockEvents {
				return f, fmt.Errorf("memsys: corrupt trace: footer block %d event count %d out of range (1-%d)", i, c, v2MaxBlockEvents)
			}
			b.events = int(c)
			events += c
		}
		sz, err := readUvarint(s, "footer block size")
		if err != nil {
			return f, err
		}
		b.size = int64(sz)
		min := int64(2)
		var max int64 = 1 + binary.MaxVarintLen64
		if !b.marker {
			min = v2MinBlockSize(b.events)
			max = v2MaxBlockSize(b.events)
		}
		if b.size < min || b.size > max {
			return f, fmt.Errorf("memsys: corrupt trace: footer block %d size %d implausible", i, b.size)
		}
		f.blocks = append(f.blocks, b)
	}
	if events != f.refs || markers != f.markers {
		return f, fmt.Errorf("memsys: corrupt trace: footer blocks hold %d references and %d markers, counts say %d and %d",
			events, markers, f.refs, f.markers)
	}
	return f, nil
}
