package store

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// walkAll is one payload with a field of every kind the walker has.
type walkAll struct {
	b      uint8
	i      int
	neg    int
	d      time.Duration
	f      float64
	x, y   bool
	s      string
	raw    []byte
	ids    []uint32
	counts []int32
}

func (v *walkAll) walk(w *Walker) {
	w.Const("WLK1", "walk version")
	U8(w, &v.b)
	U32(w, &v.i)
	U64(w, &v.neg)
	U64(w, &v.d)
	w.Float(&v.f)
	w.Flags(1, &v.x, &v.y)
	w.String(&v.s, 8)
	w.Bytes(&v.raw, 8)
	w.U32s(&v.ids, w.Count(len(v.ids), 4, 4))
	Slice(w, &v.counts, 4, 4, func(c *int32) { U32(w, c) })
}

func TestWalkerRoundTrip(t *testing.T) {
	in := walkAll{b: 200, i: 70000, neg: -3, d: 3 * time.Second, f: 0.85, y: true,
		s: "node-1", raw: []byte{9, 8}, ids: []uint32{1, 1 << 31}, counts: []int32{-1, 5}}
	data := Encode([]byte("hdr"), in.walk)
	if !bytes.HasPrefix(data, []byte("hdrWLK1")) {
		t.Fatalf("Encode did not append after dst: %x", data)
	}
	var out walkAll
	if err := Decode(data[3:], "walk", out.walk); err != nil {
		t.Fatal(err)
	}
	if out.b != in.b || out.i != in.i || out.neg != in.neg || out.d != in.d || out.f != in.f ||
		out.x || !out.y || out.s != in.s || !bytes.Equal(out.raw, in.raw) ||
		len(out.ids) != 2 || out.ids[1] != 1<<31 || len(out.counts) != 2 || out.counts[0] != -1 {
		t.Fatalf("round trip: %+v, want %+v", out, in)
	}
	// Every truncation fails as malformed, a trailing byte by count.
	for cut := 0; cut < len(data)-3; cut++ {
		if err := Decode(data[3:3+cut], "walk", new(walkAll).walk); err == nil || !strings.Contains(err.Error(), "malformed walk") {
			t.Fatalf("%d bytes: err = %v", cut, err)
		}
	}
	if err := Decode(append(data[3:], 0), "walk", new(walkAll).walk); err == nil || err.Error() != "1 trailing bytes in walk" {
		t.Fatalf("trailing byte: err = %v", err)
	}
}

// TestWalkerRefuses: a wrong constant, a flag bit no boolean is named
// for, and a count or length above its bound or above the bytes left,
// fail the walk before anything is allocated for them.
func TestWalkerRefuses(t *testing.T) {
	good := Encode(nil, (&walkAll{}).walk)
	wrong := append([]byte("WLK2"), good[4:]...)
	if err := Decode(wrong, "walk", new(walkAll).walk); err == nil || !strings.Contains(err.Error(), `unsupported walk version "WLK2"`) {
		t.Fatalf("wrong constant: err = %v", err)
	}
	for _, tc := range []struct {
		name  string
		count uint32
		bytes int
	}{
		{"over max", 5, 5 * 4},
		{"over bytes left", 3, 2 * 4},
		{"huge", 1<<32 - 1, 0},
	} {
		data := AppendU32(nil, tc.count)
		data = append(data, make([]byte, tc.bytes)...)
		var got []int32
		err := Decode(data, "list", func(w *Walker) { Slice(w, &got, 4, 4, func(c *int32) { U32(w, c) }) })
		if err == nil || len(got) != 0 || cap(got) != 0 {
			t.Fatalf("%s: err = %v, decoded %d elements (cap %d)", tc.name, err, len(got), cap(got))
		}
	}
	// walkAll's flags byte names two bits.
	flags := Encode(nil, (&walkAll{}).walk)
	flags[4+1+4+8+8+8] = 4
	if err := Decode(flags, "walk", new(walkAll).walk); err == nil || !strings.Contains(err.Error(), "past the 2 defined") {
		t.Fatalf("undefined flag bit: err = %v", err)
	}
	long := Encode(nil, (&walkAll{s: "123456789"}).walk)
	if err := Decode(long, "walk", new(walkAll).walk); err == nil {
		t.Fatal("string over its bound accepted")
	}
}
