package store

import (
	"reflect"
	"testing"
	"unsafe"
)

func TestAppendRoundTrip(t *testing.T) {
	var b []byte
	b = AppendU32(b, 0xdeadbeef)
	b = AppendU64(b, 0x0123456789abcdef)
	b = AppendU32s(b, []uint32{1, 2, 3})
	b = AppendU32s(b, nil)
	c := NewCursor(b)
	if got := c.U32(); got != 0xdeadbeef {
		t.Fatalf("U32 = %#x", got)
	}
	if got := c.U64(); got != 0x0123456789abcdef {
		t.Fatalf("U64 = %#x", got)
	}
	if got := c.U32s(3); !reflect.DeepEqual(got, []uint32{1, 2, 3}) {
		t.Fatalf("U32s = %v", got)
	}
	if c.Err() != nil || c.Remaining() != 0 {
		t.Fatalf("err=%v remaining=%d", c.Err(), c.Remaining())
	}
}

func TestCursorStickyError(t *testing.T) {
	c := NewCursor([]byte{1, 2, 3})
	if got := c.U32(); got != 0 {
		t.Fatalf("short U32 = %d", got)
	}
	if c.Err() == nil {
		t.Fatal("no error after short read")
	}
	// Every subsequent read keeps failing with the first error.
	first := c.Err()
	if c.U64() != 0 || c.U32s(1) != nil || c.Bytes(1) != nil {
		t.Fatal("reads after error returned data")
	}
	if c.Err() != first {
		t.Fatal("sticky error replaced")
	}
}

func TestCursorHugeCountRejected(t *testing.T) {
	// A corrupt 4-billion count must fail the bounds check before any
	// allocation, not attempt a 16 GB make.
	c := NewCursor(make([]byte, 64))
	if got := c.U32s(1 << 30); got != nil {
		t.Fatalf("got %d values", len(got))
	}
	if c.Err() == nil {
		t.Fatal("no error for oversized count")
	}
	if c2 := NewCursor(nil); c2.Bytes(-1) != nil || c2.Err() == nil {
		t.Fatal("negative length accepted")
	}
}

func TestUint32sZeroCopyAliases(t *testing.T) {
	if !hostLittleEndian {
		t.Skip("big-endian host: zero-copy path disabled by design")
	}
	b := make([]byte, 16)
	for i := range b {
		b[i] = byte(i)
	}
	got := Uint32s(b)
	if len(got) != 4 {
		t.Fatalf("len = %d", len(got))
	}
	if unsafe.Pointer(&got[0]) != unsafe.Pointer(&b[0]) {
		t.Fatal("aligned slice was copied, not aliased")
	}
	// Misaligned input must fall back to copying with equal values.
	mis := Uint32s(b[1:13])
	if uintptr(unsafe.Pointer(&b[1]))%4 != 0 && unsafe.Pointer(&mis[0]) == unsafe.Pointer(&b[1]) {
		t.Fatal("misaligned slice was aliased")
	}
}

func TestUint32sCopyFallbackMatches(t *testing.T) {
	b := AppendU32s(nil, []uint32{7, 0xffffffff, 42})
	fast := append([]uint32(nil), Uint32s(b)...)
	SetZeroCopyForTest(false)
	defer SetZeroCopyForTest(true)
	slow := Uint32s(b)
	if !reflect.DeepEqual(fast, slow) {
		t.Fatalf("fast %v != slow %v", fast, slow)
	}
}

// TestU64sRoundTrip: 64-bit words come back from an aligned buffer
// aliased, and from a misaligned one or the portable path copied with
// equal values.
func TestU64sRoundTrip(t *testing.T) {
	words := []uint64{0, 1 << 63, 0x0123456789abcdef}
	b := AppendU64s(AppendU32(nil, 7), words) // words start at offset 4
	b = AppendU64s(b, nil)
	c := NewCursor(b)
	c.U32()
	if got := c.U64s(3); !reflect.DeepEqual(got, words) || c.Err() != nil || c.Remaining() != 0 {
		t.Fatalf("U64s = %v, err %v, %d left", got, c.Err(), c.Remaining())
	}
	aligned := AppendU64s(make([]byte, 0, 24), words)
	if got := Uint64s(aligned); hostLittleEndian && unsafe.Pointer(&got[0]) != unsafe.Pointer(&aligned[0]) {
		t.Fatal("aligned words were copied, not aliased")
	}
	SetZeroCopyForTest(false)
	defer SetZeroCopyForTest(true)
	if got := Uint64s(aligned); !reflect.DeepEqual(got, words) {
		t.Fatalf("portable Uint64s = %v", got)
	}
	for _, n := range []int{4, -1, 1 << 61} {
		if c := NewCursor(b); c.U64s(n) != nil || c.Err() == nil {
			t.Fatalf("U64s(%d) of %d bytes accepted", n, len(b))
		}
	}
}
