package store

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Walker visits one payload's fields in wire order, in either
// direction: with no cursor it appends each field to its buffer
// (encoding), with one it reads each field back through the cursor
// (decoding). A payload whose layout is one walk function, run by
// Encode and by Decode, is spelled once, so its two directions cannot
// drift apart. Decoding errors are sticky, as on a Cursor: a walk reads
// every field and Decode checks once.
type Walker struct {
	buf []byte
	cur *Cursor
}

// Encode appends the fields walk visits to dst.
func Encode(dst []byte, walk func(*Walker)) []byte {
	w := Walker{buf: dst}
	walk(&w)
	return w.buf
}

// Decode fills in the fields walk visits from data, which must hold
// exactly those fields; what names the payload in the error.
func Decode(data []byte, what string, walk func(*Walker)) error {
	w := Walker{cur: NewCursor(data)}
	walk(&w)
	if err := w.cur.Err(); err != nil {
		return fmt.Errorf("malformed %s: %w", what, err)
	}
	if n := w.cur.Remaining(); n != 0 {
		return fmt.Errorf("%d trailing bytes in %s", n, what)
	}
	return nil
}

// Decoding reports whether the walk is reading fields, for a walk that
// must size its destination before visiting it.
func (w *Walker) Decoding() bool { return w.cur != nil }

// fail records a decoding error unless an earlier one stands.
func (w *Walker) fail(format string, args ...any) {
	if w.cur.err == nil {
		w.cur.err = fmt.Errorf("store: "+format, args...)
	}
}

// num carries v as width little-endian bytes; decoding returns the
// bytes read, zero-extended.
func (w *Walker) num(width int, v uint64) uint64 {
	var b [8]byte
	if w.cur == nil {
		binary.LittleEndian.PutUint64(b[:], v)
		w.buf = append(w.buf, b[:width]...)
		return v
	}
	copy(b[:], w.cur.Bytes(width))
	return binary.LittleEndian.Uint64(b[:])
}

type integer interface {
	~int | ~int32 | ~int64 | ~uint8 | ~uint32 | ~uint64
}

// field walks *p as width bytes. Encoding only reads *p, so a walk may
// encode a value other goroutines read.
func field[T integer](w *Walker, width int, p *T) {
	if v := w.num(width, uint64(*p)); w.cur != nil {
		*p = T(v)
	}
}

// U8, U32 and U64 walk an integer field (a time.Duration too) as 1, 4
// or 8 little-endian bytes. A narrower field keeps the low bytes of
// its value; an int decoded from 4 bytes is never negative.
func U8[T integer](w *Walker, p *T)  { field(w, 1, p) }
func U32[T integer](w *Walker, p *T) { field(w, 4, p) }
func U64[T integer](w *Walker, p *T) { field(w, 8, p) }

// Float walks a float64 as its 8-byte IEEE 754 bits.
func (w *Walker) Float(p *float64) {
	if v := w.num(8, math.Float64bits(*p)); w.cur != nil {
		*p = math.Float64frombits(v)
	}
}

// Flags walks booleans as one width-byte mask, bit i for bits[i].
// Decoding refuses a mask with a bit no boolean is named for, so every
// mask it accepts re-encodes to itself.
func (w *Walker) Flags(width int, bits ...*bool) {
	var mask uint64
	for i, b := range bits {
		if *b {
			mask |= 1 << i
		}
	}
	mask = w.num(width, mask)
	if w.cur != nil {
		if mask>>len(bits) != 0 {
			w.fail("flags %#x set a bit past the %d defined", mask, len(bits))
		}
		for i, b := range bits {
			*b = mask&(1<<i) != 0
		}
	}
}

// Const walks a fixed byte string — a magic or a version: encoding
// writes it, decoding refuses any other bytes.
func (w *Walker) Const(want, what string) {
	if w.cur == nil {
		w.buf = append(w.buf, want...)
		return
	}
	if got := w.cur.Bytes(len(want)); got != nil && string(got) != want {
		w.fail("unsupported %s %q (this build speaks %q)", what, got, want)
	}
}

// Count walks a u32 element count; encoding writes n. A decoded count
// above max, or above what the remaining bytes hold at size (> 0)
// bytes per element, fails the walk and reads as 0, so nothing is
// allocated for it.
func (w *Walker) Count(n, max, size int) int {
	n = int(w.num(4, uint64(n)))
	if w.cur != nil && (n > max || n > w.cur.Remaining()/size) {
		w.fail("count %d at offset %d exceeds limit %d or the %d bytes left", n, w.cur.off-4, max, w.cur.Remaining())
		return 0
	}
	return n
}

// Bytes walks a u32 length and that many bytes, at most max. A decoded
// slice aliases the input.
func (w *Walker) Bytes(p *[]byte, max int) {
	n := w.Count(len(*p), max, 1)
	if w.cur == nil {
		w.buf = append(w.buf, *p...)
	} else {
		*p = w.cur.Bytes(n)
	}
}

// String walks a u32 length and that many bytes, at most max.
func (w *Walker) String(p *string, max int) {
	n := w.Count(len(*p), max, 1)
	if w.cur == nil {
		w.buf = append(w.buf, *p...)
	} else if b := w.cur.Bytes(n); b != nil {
		*p = string(b)
	}
}

// U32s walks n uint32s with no count of their own (the caller walked
// it, or the layout implies it); encoding writes *p. A decoded slice
// is a copy.
func (w *Walker) U32s(p *[]uint32, n int) {
	if w.cur == nil {
		w.buf = AppendU32s(w.buf, *p)
	} else if b := w.cur.Bytes(4 * n); b != nil {
		*p = append([]uint32{}, Uint32s(b)...)
	}
}

// Slice walks a counted list: a Count of at most max elements, each at
// least size bytes on the wire, then every element through item.
// Decoding allocates the list only after its count passed.
func Slice[T any](w *Walker, s *[]T, max, size int, item func(*T)) {
	n := w.Count(len(*s), max, size)
	if w.cur != nil {
		*s = make([]T, n)
	}
	for i := range *s {
		item(&(*s)[i])
	}
}
