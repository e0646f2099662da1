package memsys

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
)

// hardeningTrace builds a small valid trace and its serialized bytes.
func hardeningTrace(t testing.TB) (*Trace, []byte) {
	t.Helper()
	tr := flatTrace([]uint64{
		traceEvent(0, 0x1000, false),
		traceEvent(1, 0x1040, true),
		resetMarker,
		traceEvent(2, 0x2000, false),
	}, []int32{0, 1, 2, 3})
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return tr, buf.Bytes()
}

func TestReadTraceCorruptInputs(t *testing.T) {
	_, good := hardeningTrace(t)

	le := binary.LittleEndian
	corrupt := func(mutate func(b []byte) []byte) []byte {
		b := append([]byte(nil), good...)
		return mutate(b)
	}
	cases := []struct {
		name string
		data []byte
		want string // substring expected in the error
	}{
		{"empty", nil, "magic"},
		{"short magic", good[:2], "magic"},
		{"bad magic", corrupt(func(b []byte) []byte {
			le.PutUint32(b, 0xdeadbeef)
			return b
		}), "bad trace magic"},
		{"missing line size", good[:4], "home line size"},
		{"zero line size", corrupt(func(b []byte) []byte {
			le.PutUint32(b[4:], 0)
			return b
		}), "out of range"},
		{"huge line size", corrupt(func(b []byte) []byte {
			le.PutUint32(b[4:], 1<<30)
			return b
		}), "out of range"},
		{"missing home count", good[:8], "home map count"},
		{"home count larger than file", corrupt(func(b []byte) []byte {
			// Claims ~128 TiB of home entries; must error, not allocate.
			le.PutUint64(b[8:], 1<<45)
			return b
		}), "truncated reading home map"},
		{"truncated homes", good[:8+8+4], "home map"},
		// The event-count field sits 8 (count) + 4×8 (events) bytes from
		// the end of a valid file.
		{"missing event count", good[:len(good)-8-4*8], "event count"},
		{"event count larger than file", corrupt(func(b []byte) []byte {
			le.PutUint64(b[len(b)-8-4*8:], 1<<45)
			return b
		}), "truncated reading events"},
		{"truncated events", good[:len(good)-4], "events"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadTrace(bytes.NewReader(tc.data))
			if err == nil {
				t.Fatal("ReadTrace accepted corrupt input")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}

	// The pristine bytes must still round-trip.
	tr, err := ReadTrace(bytes.NewReader(good))
	if err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
	if tr.Len() != 4 || tr.homeLineSize != 64 || len(tr.homes) != 4 {
		t.Fatalf("round-trip mismatch: len=%d lineSize=%d homes=%d", tr.Len(), tr.homeLineSize, len(tr.homes))
	}
}

// FuzzReadTrace throws arbitrary bytes at the decoder: it must return a
// value or an error, never panic or balloon memory, and any trace it
// accepts must re-serialize to semantically identical bytes.
func FuzzReadTrace(f *testing.F) {
	_, good := hardeningTrace(f)
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add([]byte{})
	f.Add([]byte{0x32, 0x4c, 0x50, 0x53}) // magic alone
	truncCount := append([]byte(nil), good[:8]...)
	truncCount = binary.LittleEndian.AppendUint64(truncCount, 1<<40)
	f.Add(truncCount)

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if _, werr := tr.WriteTo(&buf); werr != nil {
			t.Fatalf("accepted trace failed to re-serialize: %v", werr)
		}
		tr2, rerr := ReadTrace(bytes.NewReader(buf.Bytes()))
		if rerr != nil {
			t.Fatalf("re-serialized trace rejected: %v", rerr)
		}
		if tr2.Len() != tr.Len() || tr2.homeLineSize != tr.homeLineSize || len(tr2.homes) != len(tr.homes) {
			t.Fatal("round-trip changed the trace shape")
		}
	})
}
