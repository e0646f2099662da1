package runner

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"splash2/internal/mach"
	"splash2/internal/memsys"
)

// every is a result type with a field of each kind the codec stores.
type every struct {
	B     bool
	I     int
	I8    int8
	I64   int64
	U     uint
	U16   uint16
	U64   uint64
	F32   float32
	F     float64
	S     string
	Nil   []int
	Empty []int
	Grid  [][]float64
	Arr   [3]uint64
	Next  *every
	NilP  *int
	Stats []memsys.Stats
	Mach  mach.Stats
	Skip  int `json:"-"`
	quiet int
}

func everyValue() every {
	return every{
		B: true, I: -7, I8: -128, I64: 1 << 62, U: 7, U16: 65535, U64: 1<<64 - 1,
		F32: 1.5, F: -0.1, S: "héllo\x00", Empty: []int{},
		Grid: [][]float64{{1, 2.5}, nil, {}},
		Arr:  [3]uint64{1, 0, 1 << 40},
		Next: &every{S: "inner", Nil: []int{3}},
		Stats: []memsys.Stats{{
			Procs:      []memsys.ProcStats{{Reads: 5, Writes: 6, Misses: [4]uint64{1, 2, 3, 4}, Upgrades: 7}},
			Traffic:    memsys.Traffic{LocalData: 8, TrueSharingData: 9},
			NodeServed: []uint64{10, 11}, NodePeak: []uint64{},
		}},
		Mach: mach.Stats{Procs: []mach.Counters{{Instr: 12, SyncWait: 13}}, Time: 14},
	}
}

// storedForm encodes v and decodes the result as the cache would.
func storedForm[T any](t *testing.T, v T) (T, []byte) {
	t.Helper()
	vc := codecFor(reflect.TypeFor[T]())
	b, err := vc.encode(v)
	if err != nil {
		t.Fatalf("encode %T: %v", v, err)
	}
	got, err := vc.decode(b)
	if err != nil {
		t.Fatalf("decode %T: %v", v, err)
	}
	return got.(T), b
}

// jsonForm is v's round trip through JSON, the cache's earlier form.
func jsonForm[T any](t *testing.T, v T) T {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var out T
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestCodecRoundTrip: every stored kind decodes to the value encoded —
// nil and empty slices apart, nil pointers nil — and to what a JSON round
// trip gives, unexported and `json:"-"` fields dropped alike.
func TestCodecRoundTrip(t *testing.T) {
	v := everyValue()
	v.Skip, v.quiet = 1, 2
	got, _ := storedForm(t, v)
	want := everyValue()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, want)
	}
	if j := jsonForm(t, v); !reflect.DeepEqual(got, j) {
		t.Fatalf("round trip differs from JSON's:\n got %+v\njson %+v", got, j)
	}
	if p, _ := storedForm[*every](t, nil); p != nil {
		t.Fatalf("nil pointer decoded as %+v", p)
	}
	if g, _ := storedForm(t, [][]float64(nil)); g != nil {
		t.Fatalf("nil grid decoded as %#v", g)
	}
}

// TestCodecFingerprint: a result type whose shape differs — a field
// renamed, retyped or added — does not decode another's stored form.
func TestCodecFingerprint(t *testing.T) {
	type a struct{ X, Y int }
	type renamed struct{ X, Z int }
	type retyped struct {
		X int
		Y uint
	}
	type grown struct{ X, Y, Z int }
	type same struct{ X, Y int }
	b, err := codecFor(reflect.TypeOf(a{})).encode(a{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, typ := range []reflect.Type{reflect.TypeOf(renamed{}), reflect.TypeOf(retyped{}), reflect.TypeOf(grown{})} {
		if v, err := codecFor(typ).decode(b); err == nil {
			t.Errorf("%v decoded a stored %T: %+v", typ, a{}, v)
		}
	}
	if v, err := codecFor(reflect.TypeOf(same{})).decode(b); err != nil || v != (same{1, 2}) {
		t.Errorf("a type of the same shape: %+v, %v", v, err)
	}
}

// TestCodecRejectsKinds: maps, interfaces, channels, funcs and complex
// numbers have no stored form; a job returning one is not stored.
func TestCodecRejectsKinds(t *testing.T) {
	for _, v := range []any{map[string]int{}, struct{ A any }{}, make(chan int), func() {}, complex(1, 2), []struct{ M map[int]int }{}} {
		if _, err := codecFor(reflect.TypeOf(v)).encode(v); err == nil {
			t.Errorf("%T encoded", v)
		}
	}
	dir := t.TempDir()
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	g := New(Options{Cache: c}).NewGraph()
	j := Submit(g, Spec{Label: "map", Key: KeyOf("test", "map")}, func(context.Context) (map[string]int, error) {
		return map[string]int{"a": 1}, nil
	})
	if err := g.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if v, err := j.Result(); err != nil || v["a"] != 1 {
		t.Fatalf("result %v, %v", v, err)
	}
	if files := cacheFiles(t, dir); len(files) != 0 {
		t.Fatalf("an unstorable result was stored: %v", files)
	}
}

// TestDamagedEntriesAreMisses: an entry whose value is cut short, has
// bytes appended, carries another type's fingerprint or does not start
// with the magic is a miss, and its file is removed.
func TestDamagedEntriesAreMisses(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	vc := codecFor(reflect.TypeOf(every{}))
	value, err := vc.encode(everyValue())
	if err != nil {
		t.Fatal(err)
	}
	other, _ := codecFor(reflect.TypeOf(0)).encode(42)
	k := KeyOf("test", "damaged")
	cases := map[string][]byte{
		"truncated":         entryBytes(value[:len(value)-1]),
		"extended":          entryBytes(append(bytes.Clone(value), 0)),
		"wrong-fingerprint": entryBytes(append(bytes.Clone(other[:8]), value[8:]...)),
		"wrong-magic": func() []byte {
			b := entryBytes(value)
			b[0] ^= 0x20
			return b
		}(),
	}
	for name, entry := range cases {
		t.Run(name, func(t *testing.T) {
			if err := c.Put(context.Background(), k, value); err != nil {
				t.Fatal(err)
			}
			if _, ok := c.Get(context.Background(), k, vc.decode); !ok {
				t.Fatal("clean entry missed")
			}
			if err := os.WriteFile(c.path(k), entry, 0o644); err != nil {
				t.Fatal(err)
			}
			if v, ok := c.Get(context.Background(), k, vc.decode); ok {
				t.Fatalf("damaged entry served: %+v", v)
			}
			if left := cacheFiles(t, dir); len(left) != 0 {
				t.Fatalf("damaged entry not removed: %v", left)
			}
		})
	}
}

// TestHugeLengthDoesNotAllocate: a length prefix of 2^60 in a few bytes
// fails to decode, for a slice and for a string, without allocating
// anything like the length it names.
func TestHugeLengthDoesNotAllocate(t *testing.T) {
	for _, typ := range []reflect.Type{reflect.TypeOf([]uint64(nil)), reflect.TypeOf([][]float64(nil)), reflect.TypeOf("")} {
		vc := codecFor(typ)
		n := uint64(1) << 60
		if typ.Kind() == reflect.Slice {
			n++ // a slice stores its length+1
		}
		b := binary.AppendUvarint(append([]byte(nil), vc.fp[:]...), n)
		b = append(b, 1, 2, 3)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 100; i++ {
			if v, err := vc.decode(b); err == nil {
				t.Fatalf("%v: a 2^60 length decoded: %v", typ, v)
			}
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / 100; per > 1<<10 {
			t.Errorf("%v: a failed decode allocated %d bytes", typ, per)
		}
	}
}

// TestOldFormatEntryMigratesInPlace: a cache directory an earlier version
// filled with JSON envelopes is read as misses, and the run that recomputes
// rewrites each entry in the binary form at the same path.
func TestOldFormatEntryMigratesInPlace(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	k := KeyOf("test", "migrate")
	path := c.path(k)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256([]byte("42"))
	old := `{"sum":"` + hex.EncodeToString(sum[:]) + `","value":42}`
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	runs := 0
	for pass := 0; pass < 2; pass++ {
		g := New(Options{Cache: c}).NewGraph()
		j := Submit(g, Spec{Label: "answer", Key: k}, func(context.Context) (int, error) {
			runs++
			return 42, nil
		})
		if err := g.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		if v, _ := j.Result(); v != 42 {
			t.Fatalf("pass %d: result %d", pass, v)
		}
	}
	if runs != 1 {
		t.Fatalf("executed %d times, want once (migration), then a hit", runs)
	}
	files := cacheFiles(t, dir)
	if len(files) != 1 || files[0] != path {
		t.Fatalf("entries %v, want just %s", files, path)
	}
	if b, _ := os.ReadFile(path); !bytes.HasPrefix(b, []byte(entryMagic)) {
		t.Fatalf("entry not rewritten: %q", b)
	}
}

// FuzzCacheValue: decoding arbitrary bytes never panics, never allocates
// more than a small multiple of its input, and a value it accepts
// re-encodes to bytes that decode and re-encode to themselves.
func FuzzCacheValue(f *testing.F) {
	everyCodec := codecFor(reflect.TypeOf(every{}))
	gridCodec := codecFor(reflect.TypeOf([][]float64(nil)))
	seed, _ := everyCodec.encode(everyValue())
	f.Add(seed[8:])
	grid, _ := gridCodec.encode([][]float64{{1}, nil, {}})
	f.Add(grid[8:])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, vc := range []*valueCodec{everyCodec, gridCodec} {
			b := append(append([]byte(nil), vc.fp[:]...), body...)
			// Averaged over several decodes: MemStats also counts what the
			// fuzzing engine's own goroutines allocate meanwhile.
			const reps = 8
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < reps-1; i++ {
				vc.decode(b)
			}
			v, err := vc.decode(b)
			runtime.ReadMemStats(&after)
			if n := (after.TotalAlloc - before.TotalAlloc) / reps; n > uint64(64*len(body)+4096) {
				t.Fatalf("%v: %d input bytes allocated %d", vc.t, len(body), n)
			}
			if err != nil {
				continue
			}
			again, err := vc.encode(v)
			if err != nil {
				t.Fatalf("%v: re-encode: %v", vc.t, err)
			}
			w, err := vc.decode(again)
			if err != nil {
				t.Fatalf("%v: re-encoded value does not decode: %v", vc.t, err)
			}
			if third, _ := vc.encode(w); !bytes.Equal(third, again) {
				t.Fatalf("%v: encoding is not stable", vc.t)
			}
		}
	})
}
