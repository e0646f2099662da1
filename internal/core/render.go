package core

import (
	"bytes"
	"io"
	"math"
	"strconv"
	"text/tabwriter"
)

// row builds a table's rows in one reused buffer and hands each finished
// row to the table's tabwriter in one Write: cells are appended, never
// formatted through fmt (DESIGN.md, "A warm report renders without fmt").
type row struct {
	tw *tabwriter.Writer
	b  []byte
}

func newTable(w io.Writer) *row { return &row{tw: tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)} }

// str appends to the current cell, next starts a cell and cell starts one
// holding s; int, uint and fixed (fmt's %.{prec}f) append a number, end
// writes the finished row and flush aligns and writes out the table.
func (r *row) str(s string) *row              { r.b = append(r.b, s...); return r }
func (r *row) next() *row                     { r.b = append(r.b, '\t'); return r }
func (r *row) cell(s string) *row             { return r.next().str(s) }
func (r *row) int(v int) *row                 { r.b = strconv.AppendInt(r.b, int64(v), 10); return r }
func (r *row) uint(v uint64) *row             { r.b = strconv.AppendUint(r.b, v, 10); return r }
func (r *row) fixed(v float64, prec int) *row { r.b = appendFixed(r.b, v, prec); return r }
func (r *row) end() {
	r.b = append(r.b, '\n')
	r.tw.Write(r.b)
	r.b = r.b[:0]
}
func (r *row) flush() { r.tw.Flush() }

// appendFixed appends v byte for byte as fmt.Sprintf("%.*f", prec, v).
// strconv formats 'f' with a precision on its multiprecision path but 'e'
// with up to 17 digits through Ryū; both round the exact binary value
// correctly, so 'e' asked for exactly the digits %f prints gives them.
// NaN, ±Inf and values past 17 digits or below the last place take 'f'.
func appendFixed(dst []byte, v float64, prec int) []byte {
	a := math.Abs(v)
	_, e2 := math.Frexp(a)
	e10 := (e2 - 1) * 78913 >> 18 // floor((e2-1)·log10 2): a's exponent or one below
	if a > math.MaxFloat64 || v != v || prec+e10 < 0 || prec+e10 > 15 {
		return strconv.AppendFloat(dst, v, 'f', prec, 64)
	}
	var buf [2][32]byte
	d, x := sigDigits(buf[0][:0], a, prec+e10)
	if x > e10 {
		// e10 was one low, or rounding carried into a new leading digit
		// (9.99995 → 10.0000): one more digit tells which.
		if d2, x2 := sigDigits(buf[1][:0], a, prec+e10+1); x2 > e10 {
			d, x = d2, x2
		}
	}
	for len(d) < x+1+prec { // a carry leaves "100…" one digit short
		d = append(d, '0')
	}
	if math.Signbit(v) {
		dst = append(dst, '-')
	}
	if x < 0 {
		dst = append(dst, "0."...)
		for ; x < -1; x++ {
			dst = append(dst, '0')
		}
		return append(dst, d...)
	}
	if dst = append(dst, d[:x+1]...); prec > 0 {
		dst = append(append(dst, '.'), d[x+1:]...)
	}
	return dst
}

// sigDigits returns the p+1 significant digits strconv's 'e' rounds a > 0
// to, and their decimal exponent.
func sigDigits(buf []byte, a float64, p int) (digits []byte, exp int) {
	s := strconv.AppendFloat(buf, a, 'e', p, 64) // d[.ddd]e±dd[d]
	e := bytes.IndexByte(s, 'e')
	exp, _ = strconv.Atoi(string(s[e+1:]))
	return append(s[:1], s[e-p:e]...), exp // the digits close over the point
}
