package memsys

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// hardeningTraceV2 builds a small valid v2 container through the
// batched path: two processors in epoch 0, a reset marker, one more
// run in epoch 1 — four blocks, every tag kind represented.
func hardeningTraceV2(t testing.TB) []byte {
	t.Helper()
	rec := NewRecorder(64)
	ev := func(addr uint64, proc int, write bool) uint64 {
		e := addr<<8 | uint64(proc)<<1
		if write {
			e |= 1
		}
		return e
	}
	rec.RecordBatch(0, 0, []uint64{ev(0x1000, 0, false), ev(0x1040, 0, true)})
	rec.RecordBatch(1, 0, []uint64{ev(0x1080, 1, false)})
	rec.RecordResetAt(1)
	rec.RecordBatch(0, 1, []uint64{ev(0x10c0, 0, true)})
	tr := rec.Finish([]int32{0, 1, 2, 3})
	var buf bytes.Buffer
	if _, err := tr.WriteV2(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// v2Layout opens the pristine bytes and returns the block index and the
// footer offset, so corruption cases can hit exact structures instead
// of guessing byte positions.
func v2Layout(t testing.TB, good []byte) (index []BlockInfo, footerOff int64) {
	t.Helper()
	tf := openV2(t, good)
	return tf.Index(), tf.footerOff
}

// TestReadTraceV2CorruptInputs mirrors the v1 corruption table for v2
// input, through both ways in — ReadTrace, and OpenTraceFile plus a
// full streaming pass — which share one reader and so one standard:
// every mutation must yield the same descriptive error on both, never a
// panic, never an allocation the file's bytes don't back.
func TestReadTraceV2CorruptInputs(t *testing.T) {
	good := hardeningTraceV2(t)
	index, footerOff := v2Layout(t, good)

	le := binary.LittleEndian
	corrupt := func(mutate func(b []byte)) []byte {
		b := append([]byte(nil), good...)
		mutate(b)
		return b
	}
	// The first events block: tag at Offset, proc at Offset+1, epoch
	// varint (one byte here) at Offset+2, count varint at Offset+3.
	blk := index[0]
	var marker BlockInfo
	for _, b := range index {
		if b.Marker {
			marker = b
		}
	}
	cases := []struct {
		name string
		data []byte
		want string // substring expected in the error
	}{
		{"truncated header", good[:6], "header"},
		{"zero line size", corrupt(func(b []byte) {
			le.PutUint32(b[4:], 0)
		}), "line size"},
		{"home count larger than file", corrupt(func(b []byte) {
			le.PutUint64(b[8:], 1<<45)
		}), "home map"},
		{"truncated mid-block", good[:blk.Offset+3], "truncated"},
		{"unknown block tag", corrupt(func(b []byte) {
			b[blk.Offset] = 9
		}), "unknown block tag"},
		{"block processor out of range", corrupt(func(b []byte) {
			b[blk.Offset+1] = 127
		}), "out of range"},
		{"zero block event count", corrupt(func(b []byte) {
			b[blk.Offset+3] = 0
		}), "event count"},
		{"block disagrees with footer", corrupt(func(b []byte) {
			// Retag processor 0's first block as processor 2: decodes
			// fine, but the index footer still says processor 0.
			b[blk.Offset+1] = 2
		}), "disagrees"},
		{"marker epoch regression", corrupt(func(b []byte) {
			// The marker opens epoch 1; rewriting it to epoch 0 is
			// legal ordering-wise but contradicts the index footer.
			b[marker.Offset+1] = 0
		}), "footer"},
		{"footer version", corrupt(func(b []byte) {
			b[footerOff] = 9
		}), "version"},
		{"trailer footer length", corrupt(func(b []byte) {
			le.PutUint64(b[len(b)-12:], 1<<40)
		}), "footer length"},
		{"bad index magic", corrupt(func(b []byte) {
			b[len(b)-1] ^= 0xff
		}), "index magic"},
		{"truncated trailer", good[:len(good)-4], "trailer"},
		{"procRefs swapped", lyingFooterV2(t, good, func(m *TraceMeta) {
			m.ProcRefs[0], m.ProcRefs[1] = m.ProcRefs[1], m.ProcRefs[0]
		}), "index footer counts 1 references for processor 0, blocks hold 3"},
		{"footer processor count overstated", lyingFooterV2(t, good, func(m *TraceMeta) {
			m.MaxProc++
			m.ProcRefs = append(m.ProcRefs, 0)
		}), "processors"},
		{"footer maxAddr overstated", lyingFooterV2(t, good, func(m *TraceMeta) {
			m.MaxAddr = 1 << 40
		}), "maximum address"},
	}
	dir := t.TempDir()
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadTrace(bytes.NewReader(tc.data))
			if err == nil {
				t.Fatal("ReadTrace accepted corrupt v2 input")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("ReadTrace error %q does not mention %q", err, tc.want)
			}

			path := filepath.Join(dir, strconv.Itoa(i)+".sp2t")
			if err := os.WriteFile(path, tc.data, 0o644); err != nil {
				t.Fatal(err)
			}
			tf, err := OpenTraceFile(path, nil)
			if err == nil {
				defer tf.Close()
				err = tf.blocks(func([]uint64) error { return nil })
			}
			if err == nil {
				t.Fatal("OpenTraceFile and a full stream accepted corrupt v2 input")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("OpenTraceFile+stream error %q does not mention %q", err, tc.want)
			}
		})
	}

	// The pristine bytes must still decode.
	tr, err := ReadTrace(bytes.NewReader(good))
	if err != nil {
		t.Fatalf("valid v2 trace rejected: %v", err)
	}
	if tr.Len() != 5 || tr.homeLineSize != 64 || len(tr.homes) != 4 {
		t.Fatalf("round-trip mismatch: len=%d lineSize=%d homes=%d", tr.Len(), tr.homeLineSize, len(tr.homes))
	}
}

// TestTraceFileCorruptInputs drills the open path: NewTraceFile trusts
// nothing — trailer, footer and header must all cross-validate before
// any block is read.
func TestTraceFileCorruptInputs(t *testing.T) {
	good := hardeningTraceV2(t)
	_, footerOff := v2Layout(t, good)

	le := binary.LittleEndian
	corrupt := func(mutate func(b []byte)) []byte {
		b := append([]byte(nil), good...)
		mutate(b)
		return b
	}
	v1 := func() []byte {
		tr, err := ReadTrace(bytes.NewReader(good))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := tr.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}()

	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"smaller than empty container", good[:20], "smaller than an empty"},
		{"flat v1 input", v1, "convert"},
		{"bad magic", corrupt(func(b []byte) {
			le.PutUint32(b, 0xdeadbeef)
		}), "magic"},
		{"zero line size", corrupt(func(b []byte) {
			le.PutUint32(b[4:], 0)
		}), "line size"},
		{"home count larger than file", corrupt(func(b []byte) {
			le.PutUint64(b[8:], 1<<45)
		}), "cannot fit"},
		{"bad index magic", corrupt(func(b []byte) {
			b[len(b)-1] ^= 0xff
		}), "index magic"},
		{"footer length out of range", corrupt(func(b []byte) {
			le.PutUint64(b[len(b)-12:], 1<<40)
		}), "out of range"},
		{"footer length off by one", corrupt(func(b []byte) {
			n := le.Uint64(b[len(b)-12:])
			le.PutUint64(b[len(b)-12:], n+1)
		}), "footer"},
		{"footer version", corrupt(func(b []byte) {
			b[footerOff] = 9
		}), "version"},
		{"corrupt end tag", corrupt(func(b []byte) {
			b[footerOff-1] = 9
		}), "block sequence ends"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewTraceFile(bytes.NewReader(tc.data), int64(len(tc.data)), nil)
			if err == nil {
				t.Fatal("NewTraceFile accepted corrupt input")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestTraceFileCorruptBlocks drills the lazy half: the open succeeds on
// a valid footer, but a block whose bytes contradict the index must be
// reported at decode time — by DecodeBlock and by a streaming replay.
func TestTraceFileCorruptBlocks(t *testing.T) {
	good := hardeningTraceV2(t)
	index, _ := v2Layout(t, good)

	eventsIdx, markerIdx := -1, -1
	for i, b := range index {
		if b.Marker && markerIdx < 0 {
			markerIdx = i
		}
		if !b.Marker && eventsIdx < 0 {
			eventsIdx = i
		}
	}
	corrupt := func(mutate func(b []byte)) []byte {
		b := append([]byte(nil), good...)
		mutate(b)
		return b
	}
	cases := []struct {
		name  string
		data  []byte
		block int
		want  string
	}{
		{"events block retagged as marker", corrupt(func(b []byte) {
			b[index[eventsIdx].Offset] = v2TagMarker
		}), eventsIdx, "index footer says events"},
		{"marker block retagged as events", corrupt(func(b []byte) {
			b[index[markerIdx].Offset] = v2TagEvents
		}), markerIdx, "index footer says marker"},
		{"block header disagrees with footer", corrupt(func(b []byte) {
			b[index[eventsIdx].Offset+1] = 2
		}), eventsIdx, "disagrees with index footer"},
		{"truncated address varint", corrupt(func(b []byte) {
			// The last payload byte becomes a varint continuation with
			// nothing following it.
			off := index[eventsIdx].Offset + index[eventsIdx].Size - 1
			b[off] = 0x80
		}), eventsIdx, "varint"},
		{"marker epoch disagrees with footer", corrupt(func(b []byte) {
			b[index[markerIdx].Offset+1] = 0
		}), markerIdx, "index footer says"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tf, err := NewTraceFile(bytes.NewReader(tc.data), int64(len(tc.data)), nil)
			if err != nil {
				t.Fatalf("open rejected block-level corruption early: %v", err)
			}
			if _, err := tf.DecodeBlock(tc.block); err == nil {
				t.Fatal("DecodeBlock accepted a corrupt block")
			} else if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
			// The streaming consumers must surface the same failure
			// instead of replaying garbage.
			cfg := Config{Procs: 4, CacheSize: 2048, Assoc: 2, LineSize: 64}
			if _, err := Replay(tf, cfg); err == nil {
				t.Fatal("streaming replay accepted a corrupt block")
			}
			if _, err := SetAssocSweep(tf, cfg.LineSize, cfg.Assoc, []int{cfg.CacheSize}); err == nil {
				t.Fatal("set-associative sweep accepted a corrupt block")
			}
		})
	}
}

// TestOverstatedMaxAddrFailsEachPass: a 5-event container whose footer
// claims addresses up to 1<<40 must fail every streaming pass as a
// corrupt trace — none may size its tables from the claim (that would
// exhaust memory before the first block).
func TestOverstatedMaxAddrFailsEachPass(t *testing.T) {
	tf := openV2(t, lyingFooterV2(t, hardeningTraceV2(t), func(m *TraceMeta) { m.MaxAddr = 1 << 40 }))
	passes := map[string]func() error{
		"ReplayMulti": func() error {
			_, err := ReplayMulti(tf, []Config{{Procs: 4, CacheSize: 2048, Assoc: 2, LineSize: 64}})
			return err
		},
		"StackDistances": func() error {
			_, err := StackDistances(tf, 64, 4096)
			return err
		},
		"SampledStackDistances": func() error {
			_, err := SampledStackDistances(tf, 64, 4096, SampledOptions{Rate: 0.5, ExactLines: 8})
			return err
		},
		"SetAssocSweep": func() error {
			_, err := SetAssocSweep(tf, 64, 2, []int{2048, 256})
			return err
		},
	}
	for name, pass := range passes {
		if err := pass(); err == nil || !strings.Contains(err.Error(), "corrupt trace") {
			t.Errorf("%s over an overstated maximum address: error %v, want a corrupt trace", name, err)
		}
	}
}

// FuzzReadTraceV2 throws arbitrary bytes at the v2 reader: ReadTrace
// and a full TraceFile stream must agree on acceptance (they are one
// reader), never panic, and any accepted container must stream the
// loaded events and re-serialize to an equivalent stream.
func FuzzReadTraceV2(f *testing.F) {
	good := hardeningTraceV2(f)
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add(good[:len(good)-12])
	flip := append([]byte(nil), good...)
	flip[len(flip)/2] ^= 0x55
	f.Add(flip)
	f.Add([]byte{0x33, 0x4c, 0x50, 0x53}) // v2 magic alone

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 || binary.LittleEndian.Uint32(data) != traceMagicV2 {
			return // not v2; FuzzReadTrace covers v1
		}
		tr, err := ReadTrace(bytes.NewReader(data))
		var streamed []uint64
		tf, ferr := NewTraceFile(bytes.NewReader(data), int64(len(data)), nil)
		if ferr == nil {
			ferr = tf.blocks(func(ev []uint64) error {
				streamed = append(streamed, ev...)
				return nil
			})
		}
		if (err == nil) != (ferr == nil) {
			t.Fatalf("ReadTrace error %v, TraceFile stream error %v", err, ferr)
		}
		if err != nil {
			return
		}
		if !bytes.Equal(u64Bytes(streamed), eventWords(t, tr)) {
			t.Fatal("TraceFile streams a different event sequence")
		}
		// Re-serialize and decode again: the stream must survive.
		var buf bytes.Buffer
		if _, werr := tr.WriteV2(&buf); werr != nil {
			t.Fatalf("accepted v2 trace failed to re-serialize: %v", werr)
		}
		tr2, rerr := ReadTrace(bytes.NewReader(buf.Bytes()))
		if rerr != nil {
			t.Fatalf("re-serialized v2 trace rejected: %v", rerr)
		}
		if !bytes.Equal(eventWords(t, tr2), eventWords(t, tr)) {
			t.Fatal("v2 round trip changed the event stream")
		}
	})
}

func eventWords(t testing.TB, tr *Trace) []byte { return u64Bytes(collectEvents(t, tr)) }

func u64Bytes(events []uint64) []byte {
	out := make([]byte, 0, 8*len(events))
	for _, e := range events {
		out = binary.LittleEndian.AppendUint64(out, e)
	}
	return out
}

// decodeV2PayloadRef is decodeV2Payload's reference: the plain loop —
// one varint call per address, the 56-bit bound checked on every
// address, the write bit read per event.
func decodeV2PayloadRef(payload []byte, proc, count int, dst []uint64) ([]uint64, Addr, error) {
	nb := (count + 7) / 8
	if len(payload) < nb {
		return dst, 0, errors.New("bitmap")
	}
	bitmap, rest := payload[:nb], payload[nb:]
	var addr uint64
	var maxA Addr
	for i := 0; i < count; i++ {
		if i == 0 {
			v, n := binary.Uvarint(rest)
			if n <= 0 {
				return dst, 0, errors.New("base varint")
			}
			rest, addr = rest[n:], v
		} else {
			d, n := binary.Varint(rest)
			if n <= 0 {
				return dst, 0, errors.New("delta varint")
			}
			rest, addr = rest[n:], uint64(int64(addr)+d)
		}
		if addr > maxTraceAddr {
			return dst, 0, errors.New("56-bit")
		}
		e := addr<<8 | uint64(proc)<<1
		if bitmap[i/8]&(1<<(i%8)) != 0 {
			e |= 1
		}
		dst = append(dst, e)
		maxA = max(maxA, Addr(addr))
	}
	if len(rest) != 0 {
		return dst, 0, errors.New("trailing")
	}
	return dst, maxA, nil
}

// TestDecodeV2PayloadMatchesReference: on generated payloads — 1-byte
// and multi-byte deltas, negative deltas, pad bits set in the last
// bitmap byte, an address past 56 bits, trailing bytes, truncations,
// non-minimal and overlong varints, wrong counts and random byte flips —
// the decoder must accept exactly the payloads the reference accepts,
// with the same events and maximum.
func TestDecodeV2PayloadMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	type input struct {
		name    string
		payload []byte
		count   int
	}
	var inputs []input
	add := func(name string, payload []byte, count int) {
		inputs = append(inputs, input{name, payload, count})
	}
	gen := func(n int, stride func() int64) []uint64 {
		events := make([]uint64, n)
		addr := int64(1 << 20)
		for i := range events {
			events[i] = uint64(addr)<<8 | uint64(rng.Intn(2))
			addr = max(addr+stride(), 0)
		}
		return events
	}
	strides := map[string]func() int64{
		"1-byte deltas":     func() int64 { return int64(rng.Intn(64)) - 32 },
		"multi-byte deltas": func() int64 { return int64(rng.Intn(1<<24)) - 1<<23 },
		"negative deltas":   func() int64 { return -int64(rng.Intn(200)) },
		"mixed deltas": func() int64 {
			if rng.Intn(4) == 0 {
				return int64(rng.Intn(1 << 30))
			}
			return int64(rng.Intn(16)) * 8
		},
	}
	for name, stride := range strides {
		for _, n := range []int{1, 7, 8, 9, 100, 4096} {
			_, p, _ := appendV2Events(nil, nil, 3, 0, gen(n, stride))
			p = append([]byte(nil), p...)
			add(name, p, n)
			if n%8 != 0 {
				padded := append([]byte(nil), p...)
				padded[(n+7)/8-1] |= 0xff << (n % 8)
				add(name+", pad bits set", padded, n)
			}
			add(name+", trailing byte", append(append([]byte(nil), p...), 0x02), n)
			add(name+", truncated", p[:len(p)-1], n)
			add(name+", count+1", p, n+1)
			add(name+", count-1", p, n-1)
			for range 8 {
				flipped := append([]byte(nil), p...)
				flipped[rng.Intn(len(flipped))] ^= byte(1 + rng.Intn(255))
				add(name+", byte flipped", flipped, n)
			}
		}
	}
	past56 := func(base uint64, deltas ...int64) []byte {
		p := []byte{0}
		p = binary.AppendUvarint(p, base)
		for _, d := range deltas {
			p = binary.AppendVarint(p, d)
		}
		return p
	}
	add("largest address", past56(maxTraceAddr, -8, 8), 3)
	add("base past 56 bits", past56(maxTraceAddr+1, -8), 2)
	add("delta past 56 bits", past56(maxTraceAddr-8, 16, -16), 3)
	add("delta below zero", past56(8, -16, 16), 3)
	add("empty payload", nil, 1)
	add("non-minimal 2-byte delta", []byte{0, 8, 0x80, 0x00}, 2)
	add("non-minimal 3-byte delta", []byte{0, 8, 0x90, 0x80, 0x00}, 2)
	add("overlong delta", append([]byte{0, 8}, bytes.Repeat([]byte{0xff}, 10)...), 2)

	accepted := 0
	for _, in := range inputs {
		want, wantMax, wantErr := decodeV2PayloadRef(in.payload, 3, in.count, nil)
		got, gotMax, gotErr := decodeV2Payload(in.payload, 3, in.count, nil)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("%s (count %d): reference error %v, decoder error %v", in.name, in.count, wantErr, gotErr)
		}
		if wantErr != nil {
			continue
		}
		accepted++
		if !reflect.DeepEqual(got, want) || gotMax != wantMax {
			t.Fatalf("%s (count %d): decoder yields other events or maximum (%#x, reference %#x)", in.name, in.count, gotMax, wantMax)
		}
	}
	if accepted == 0 || accepted == len(inputs) {
		t.Fatalf("%d of %d inputs accepted; the generator covers only one side", accepted, len(inputs))
	}
}
