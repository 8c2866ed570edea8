package dist

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Binary value codec for message payloads: little-endian, length-prefixed
// strings and slices, floats shipped as their exact IEEE-754 bits (the
// byte-identical-results guarantee forbids any text round-trip of floats).
// The reader never panics on malformed input — every accessor checks bounds
// and latches the first error, so a fuzzer-shaped frame decodes to an error,
// not a crash.

type encoder struct {
	buf []byte
}

func (e *encoder) u8(v uint8) { e.buf = append(e.buf, v) }
func (e *encoder) u32(v uint32) {
	e.buf = binary.LittleEndian.AppendUint32(e.buf, v)
}
func (e *encoder) u64(v uint64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, v)
}
func (e *encoder) i64(v int64)   { e.u64(uint64(v)) }
func (e *encoder) f64(v float64) { e.u64(math.Float64bits(v)) }
func (e *encoder) boolean(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}
func (e *encoder) str(s string) {
	e.u32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}
func (e *encoder) i64s(xs []int64) {
	e.u32(uint32(len(xs)))
	for _, x := range xs {
		e.i64(x)
	}
}
func (e *encoder) ints(xs []int) {
	e.u32(uint32(len(xs)))
	for _, x := range xs {
		e.i64(int64(x))
	}
}
func (e *encoder) f64s(xs []float64) {
	e.u32(uint32(len(xs)))
	for _, x := range xs {
		e.f64(x)
	}
}

type decoder struct {
	buf []byte
	off int
	err error
}

func (d *decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("dist: truncated or malformed payload reading %s at offset %d", what, d.off)
	}
}

func (d *decoder) take(n int, what string) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.off+n > len(d.buf) {
		d.fail(what)
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

func (d *decoder) u8(what string) uint8 {
	b := d.take(1, what)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *decoder) u32(what string) uint32 {
	b := d.take(4, what)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (d *decoder) u64(what string) uint64 {
	b := d.take(8, what)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (d *decoder) i64(what string) int64   { return int64(d.u64(what)) }
func (d *decoder) f64(what string) float64 { return math.Float64frombits(d.u64(what)) }

func (d *decoder) boolean(what string) bool { return d.u8(what) != 0 }

func (d *decoder) str(what string) string {
	n := int(d.u32(what))
	b := d.take(n, what)
	if b == nil {
		return ""
	}
	return string(b)
}

// count reads a slice length and sanity-bounds it against the bytes left, so
// a hostile length prefix cannot drive a huge allocation.
func (d *decoder) count(elemSize int, what string) int {
	n := int(d.u32(what))
	if d.err != nil {
		return 0
	}
	if n < 0 || n*elemSize > len(d.buf)-d.off {
		d.fail(what)
		return 0
	}
	return n
}

func (d *decoder) i64s(what string) []int64 { return d.i64sInto(nil, what) }

// i64sInto is i64s into dst's storage, regrown only when too small: the
// per-window decoders hand back the slices of the previous window.
func (d *decoder) i64sInto(dst []int64, what string) []int64 {
	n := d.count(8, what)
	if d.err != nil || n == 0 {
		return dst[:0]
	}
	if cap(dst) < n {
		dst = make([]int64, n)
	}
	dst = dst[:n]
	for i := range dst {
		dst[i] = d.i64(what)
	}
	return dst
}

func (d *decoder) ints(what string) []int {
	n := d.count(8, what)
	if d.err != nil || n == 0 {
		return nil
	}
	xs := make([]int, n)
	for i := range xs {
		xs[i] = int(d.i64(what))
	}
	return xs
}

func (d *decoder) f64s(what string) []float64 {
	n := d.count(8, what)
	if d.err != nil || n == 0 {
		return nil
	}
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = d.f64(what)
	}
	return xs
}

// finish returns the latched error, also flagging trailing garbage — a
// well-formed payload is consumed exactly.
func (d *decoder) finish() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.buf) {
		return fmt.Errorf("dist: payload has %d trailing bytes", len(d.buf)-d.off)
	}
	return nil
}
