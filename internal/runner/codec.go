package runner

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
	"sync"
)

// The binary form of a stored job result. A value of type T is T's
// 8-byte shape fingerprint followed by the value itself:
//
//   - bool: one byte, 0 or 1;
//   - signed integers: zigzag varint; unsigned integers: uvarint;
//   - floats: the 8 bytes of their float64 bits, little-endian;
//   - strings: uvarint length, then the bytes;
//   - slices: uvarint length+1, 0 meaning nil (so nil and empty stay
//     distinct, as they did in JSON), then the elements;
//   - arrays: the elements; pointers: 0 for nil, else 1 and the pointee;
//   - structs: each exported field not tagged `json:"-"`, in order —
//     exactly the fields JSON stored.
//
// Any other kind (map, interface, chan, func, complex) has no binary
// form: its job's result is not stored, as a json.Marshal error was not.
// The fingerprint hashes the kinds and field names of T, recursively, so
// a result type edited without a SuiteVersion bump reads as a miss
// instead of a value with zeroed fields.

// valueCodec is one type's compiled encoder and decoder, built once per
// type (codecFor), so encoding a value walks no reflect.Type.
type valueCodec struct {
	t    reflect.Type
	fp   [8]byte
	root *typeCodec
	err  error // why t has no binary form
}

// typeCodec encodes and decodes one type inside a value. min is the
// fewest bytes a value of the type encodes to: it bounds a decoded
// length by the bytes left, so a corrupt length never sizes an
// allocation.
type typeCodec struct {
	enc func(b []byte, v reflect.Value) []byte
	dec func(d *decoder, v reflect.Value)
	min int
}

var codecs sync.Map // reflect.Type → *valueCodec

// codecFor returns t's codec, compiling it on first use.
func codecFor(t reflect.Type) *valueCodec {
	if c, ok := codecs.Load(t); ok {
		return c.(*valueCodec)
	}
	cp := compiler{ids: map[reflect.Type]int{}}
	vc := &valueCodec{t: t}
	vc.root, vc.err = cp.compile(t)
	sum := sha256.Sum256([]byte(cp.shape.String()))
	copy(vc.fp[:], sum[:])
	c, _ := codecs.LoadOrStore(t, vc)
	return c.(*valueCodec)
}

// encode returns the stored form of v, which must hold a vc.t.
func (vc *valueCodec) encode(v any) ([]byte, error) {
	if vc.err != nil {
		return nil, vc.err
	}
	return vc.root.enc(append(make([]byte, 0, 512), vc.fp[:]...), reflect.ValueOf(v)), nil
}

var errCorrupt = errors.New("runner: stored value does not decode")

// decode reads a stored form of vc.t. A wrong fingerprint, a short or
// malformed value or bytes left over are errors.
func (vc *valueCodec) decode(b []byte) (any, error) {
	if vc.err != nil {
		return nil, vc.err
	}
	if len(b) < len(vc.fp) || [8]byte(b[:8]) != vc.fp {
		return nil, fmt.Errorf("runner: stored value is not a %v", vc.t)
	}
	d := decoder{b: b[8:]}
	v := reflect.New(vc.t).Elem()
	if vc.root.dec(&d, v); len(d.b) > 0 {
		d.fail()
	}
	if d.err != nil {
		return nil, d.err
	}
	return v.Interface(), nil
}

// compiler builds the codecs of one type and writes its shape, the
// fingerprint's input. A type met again — a repeated field type, or a
// recursive one — reuses its codec and writes a back-reference.
type compiler struct {
	ids    map[reflect.Type]int
	codecs []*typeCodec
	shape  strings.Builder
}

func (cp *compiler) compile(t reflect.Type) (*typeCodec, error) {
	if id, ok := cp.ids[t]; ok {
		cp.shape.WriteString("@" + strconv.Itoa(id))
		return cp.codecs[id], nil
	}
	c := &typeCodec{min: 1}
	cp.ids[t] = len(cp.codecs)
	cp.codecs = append(cp.codecs, c)
	cp.shape.WriteString(t.Kind().String())
	switch k := t.Kind(); k {
	case reflect.Bool:
		c.enc = func(b []byte, v reflect.Value) []byte {
			if v.Bool() {
				return append(b, 1)
			}
			return append(b, 0)
		}
		c.dec = func(d *decoder, v reflect.Value) { v.SetBool(d.flag()) }
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		c.enc = func(b []byte, v reflect.Value) []byte { return binary.AppendVarint(b, v.Int()) }
		c.dec = func(d *decoder, v reflect.Value) {
			u := d.uvarint()
			v.SetInt(int64(u>>1) ^ -int64(u&1))
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		c.enc = func(b []byte, v reflect.Value) []byte { return binary.AppendUvarint(b, v.Uint()) }
		c.dec = func(d *decoder, v reflect.Value) { v.SetUint(d.uvarint()) }
	case reflect.Float32, reflect.Float64:
		c.min = 8
		c.enc = func(b []byte, v reflect.Value) []byte {
			return binary.LittleEndian.AppendUint64(b, math.Float64bits(v.Float()))
		}
		c.dec = func(d *decoder, v reflect.Value) {
			if d.count(1, 8) == 1 {
				v.SetFloat(math.Float64frombits(binary.LittleEndian.Uint64(d.b)))
				d.b = d.b[8:]
			}
		}
	case reflect.String:
		c.enc = func(b []byte, v reflect.Value) []byte {
			return append(binary.AppendUvarint(b, uint64(v.Len())), v.String()...)
		}
		c.dec = func(d *decoder, v reflect.Value) {
			n := d.count(d.uvarint(), 1)
			v.SetString(string(d.b[:n]))
			d.b = d.b[n:]
		}
	case reflect.Slice, reflect.Array:
		if k == reflect.Array {
			cp.shape.WriteString(strconv.Itoa(t.Len()))
		}
		elem, err := cp.compile(t.Elem())
		if err != nil {
			return nil, err
		}
		if k == reflect.Array {
			c.min = t.Len() * elem.min
		}
		c.enc = func(b []byte, v reflect.Value) []byte {
			if k == reflect.Slice {
				if v.IsNil() {
					return append(b, 0)
				}
				b = binary.AppendUvarint(b, uint64(v.Len())+1)
			}
			for i := 0; i < v.Len(); i++ {
				b = elem.enc(b, v.Index(i))
			}
			return b
		}
		c.dec = func(d *decoder, v reflect.Value) {
			if k == reflect.Slice {
				n := d.uvarint()
				if n == 0 {
					return
				}
				m := d.count(n-1, elem.min)
				v.Set(reflect.MakeSlice(t, m, m))
			}
			for i := 0; i < v.Len() && d.err == nil; i++ {
				elem.dec(d, v.Index(i))
			}
		}
	case reflect.Pointer:
		elem, err := cp.compile(t.Elem())
		if err != nil {
			return nil, err
		}
		c.enc = func(b []byte, v reflect.Value) []byte {
			if v.IsNil() {
				return append(b, 0)
			}
			return elem.enc(append(b, 1), v.Elem())
		}
		c.dec = func(d *decoder, v reflect.Value) {
			if d.flag() && d.count(1, elem.min) == 1 {
				p := reflect.New(t.Elem())
				elem.dec(d, p.Elem())
				v.Set(p)
			}
		}
	case reflect.Struct:
		var idx []int
		var fields []*typeCodec
		c.min = 0
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() || f.Tag.Get("json") == "-" {
				continue
			}
			cp.shape.WriteString("{" + f.Name + ":")
			fc, err := cp.compile(f.Type)
			if err != nil {
				return nil, err
			}
			cp.shape.WriteString("}")
			idx, fields = append(idx, i), append(fields, fc)
			c.min += fc.min
		}
		c.enc = func(b []byte, v reflect.Value) []byte {
			for i, fc := range fields {
				b = fc.enc(b, v.Field(idx[i]))
			}
			return b
		}
		c.dec = func(d *decoder, v reflect.Value) {
			for i, fc := range fields {
				fc.dec(d, v.Field(idx[i]))
			}
		}
	default:
		return nil, fmt.Errorf("runner: a %v result cannot be stored: %v values have no binary form", t, k)
	}
	return c, nil
}

// decoder reads a stored value. The first malformed read sets err and
// empties b, so every later read fails at once and every loop ends.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) fail() {
	d.b, d.err = nil, errCorrupt
}

func (d *decoder) uvarint() uint64 {
	x, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.b = d.b[n:]
	return x
}

// flag reads a bool or a pointer's presence, which must be 0 or 1.
func (d *decoder) flag() bool {
	x := d.uvarint()
	if x > 1 {
		d.fail()
	}
	return x == 1
}

// count checks a decoded length of n items of at least size bytes each
// against the bytes left; a length they cannot hold is an error.
func (d *decoder) count(n uint64, size int) int {
	if n > uint64(len(d.b))/uint64(max(size, 1)) {
		d.fail()
		return 0
	}
	return int(n)
}
