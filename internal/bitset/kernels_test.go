package bitset

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// randRow returns n words of pseudo-random bits, with occasional
// all-zero and all-one words so the popcount paths see both extremes.
func randRow(rng *rand.Rand, n int) []uint64 {
	w := make([]uint64, n)
	for i := range w {
		switch rng.Intn(8) {
		case 0:
			w[i] = 0
		case 1:
			w[i] = ^uint64(0)
		default:
			w[i] = rng.Uint64()
		}
	}
	return w
}

// bitAt reads bit i of w without any kernel: the per-bit model below
// is built from it alone.
func bitAt(w []uint64, i int) bool { return w[i/64]>>(i%64)&1 == 1 }

// modelAnd computes a ∩ b and its population count one bit at a time,
// over the first min(len(a), len(b)) words.
func modelAnd(a, b []uint64) ([]uint64, int) {
	out := make([]uint64, min(len(a), len(b)))
	c := 0
	for i := 0; i < len(out)*64; i++ {
		if bitAt(a, i) && bitAt(b, i) {
			out[i/64] |= 1 << (i % 64)
			c++
		}
	}
	return out, c
}

// modelOr returns a copy of dst with every bit of a set in it, over the
// first min(len(dst), len(a)) words; the words past them keep dst's.
func modelOr(dst, a []uint64) []uint64 {
	out := append([]uint64(nil), dst...)
	for i := 0; i < min(len(dst), len(a))*64; i++ {
		if bitAt(a, i) {
			out[i/64] |= 1 << (i % 64)
		}
	}
	return out
}

// modelMembers lists the set bits of w in increasing order.
func modelMembers(w []uint64) []uint32 {
	var xs []uint32
	for i := 0; i < len(w)*64; i++ {
		if bitAt(w, i) {
			xs = append(xs, uint32(i))
		}
	}
	return xs
}

// checkKernels runs every exported kernel on (dst, a, b), each writing
// kernel on its own copy of dst, and compares it with the per-bit
// model: the clamped prefix holds the model's words and every word past
// it keeps dst's. AppendBits must list a's members, and FillBits must
// rebuild a from them.
func checkKernels(t *testing.T, what string, dst, a, b []uint64) {
	t.Helper()
	_, wantCount := modelAnd(a, b)
	if got := AndCount(a, b); got != wantCount {
		t.Fatalf("%s: AndCount=%d want %d", what, got, wantCount)
	}

	n := min(len(dst), len(a), len(b))
	wantAnd, wantAndCount := modelAnd(a[:n], b[:n])
	wantDst := append(wantAnd, dst[n:]...)
	got := append([]uint64(nil), dst...)
	AndTo(got, a, b)
	if !slices.Equal(got, wantDst) {
		t.Fatalf("%s: AndTo = %#x want %#x", what, got, wantDst)
	}
	got = append(got[:0], dst...)
	if c := AndCountTo(got, a, b); c != wantAndCount {
		t.Fatalf("%s: AndCountTo=%d want %d", what, c, wantAndCount)
	}
	if !slices.Equal(got, wantDst) {
		t.Fatalf("%s: AndCountTo wrote %#x want %#x", what, got, wantDst)
	}

	wantOr := modelOr(dst, b)
	got = append(got[:0], dst...)
	OrWith(got, b)
	if !slices.Equal(got, wantOr) {
		t.Fatalf("%s: OrWith = %#x want %#x", what, got, wantOr)
	}

	members := modelMembers(a)
	if xs := AppendBits(nil, a); !slices.Equal(xs, members) {
		t.Fatalf("%s: AppendBits = %v want %v", what, xs, members)
	}
	filled := append([]uint64(nil), dst...) // stale bits FillBits must clear
	if len(filled) >= len(a) {
		filled = filled[:len(a)]
		FillBits(filled, members)
		if !slices.Equal(filled, a) {
			t.Fatalf("%s: FillBits = %#x want %#x", what, filled, a)
		}
	}
}

// kernelLens covers the degenerate 0/1 cases, the one-word path's
// boundary, odd lengths and tails that are not a multiple of 4 or 8.
var kernelLens = []int{0, 1, 2, 3, 7, 8, 9, 15, 16, 17, 31, 33, 64, 100, 255, 256, 1000}

// TestKernelParityAcrossDispatch checks every exported kernel against
// the per-bit model over kernelLens, with equal operand lengths and
// with each operand in turn one word longer or shorter than the other
// two.
func TestKernelParityAcrossDispatch(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range kernelLens {
		for _, d := range [][3]int{{0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {0, 0, 1}, {0, 1, 1}, {1, 0, 1}, {1, 1, 0}} {
			ld, la, lb := n+d[0], n+d[1], n+d[2]
			checkKernels(t, fmt.Sprintf("len=%d/%d/%d", ld, la, lb),
				randRow(rng, ld), randRow(rng, la), randRow(rng, lb))
		}
	}
}

// TestKernelUnalignedTails runs the kernels on sub-slices at every
// word offset of a shared backing array, so the operands start at
// every 8-byte offset of a 64-byte cache line.
func TestKernelUnalignedTails(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const total = 64
	back := randRow(rng, total)
	other := randRow(rng, total)
	for off := 0; off < 8; off++ {
		for _, n := range []int{1, 2, 8, 9, 12, 24, 40} {
			checkKernels(t, fmt.Sprintf("off=%d n=%d", off, n),
				randRow(rng, n), back[off:off+n], other[off:off+n])
		}
	}
}

// TestKernelLengthClamping checks the min-length guards: mismatched
// operand lengths only touch the common prefix and never read or
// write out of bounds. The one-word cases sit on the inlined path's
// guard: AndCount([1], [0]) is 0, not a read of b[0].
func TestKernelLengthClamping(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, tc := range []struct{ la, lb int }{
		{20, 12}, {12, 20}, {9, 8}, {8, 9}, {16, 0}, {0, 16}, {1, 40},
		{1, 0}, {0, 1}, {1, 1}, {1, 2}, {2, 1},
	} {
		checkKernels(t, fmt.Sprintf("la=%d lb=%d", tc.la, tc.lb),
			randRow(rng, tc.la), randRow(rng, tc.la), randRow(rng, tc.lb))
	}
}

// TestFillBits checks both paths against a SetBit loop: a one-word row
// (built in a register) and a two-word row (the general body), each
// refilled over stale bits.
func TestFillBits(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, words := range []int{1, 2} {
		for trial := 0; trial < 200; trial++ {
			xs := make([]uint32, rng.Intn(2*wordBits))
			for i := range xs {
				xs[i] = uint32(rng.Intn(words * wordBits))
			}
			want := make([]uint64, words)
			for _, x := range xs {
				SetBit(want, int(x))
			}
			got := randRow(rng, words) // stale bits FillBits must clear
			FillBits(got, xs)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("words=%d xs=%v: word %d = %#x want %#x", words, xs, i, got[i], want[i])
				}
			}
		}
	}
}

// TestFillBitsOutOfRangePanics checks that a member past a one-word row
// panics on the inlined path, as it does on the general body.
func TestFillBitsOutOfRangePanics(t *testing.T) {
	for _, xs := range [][]uint32{{64}, {3, 64}, {127, 5}, {1 << 31}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("FillBits(1 word, %v) did not panic", xs)
				}
			}()
			FillBits(make([]uint64, 1), xs)
		}()
	}
}

// TestKernelAliasing checks the documented exact-aliasing contracts:
// dst == a and dst == b for the writing kernels.
func TestKernelAliasing(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 8, 17, 64} {
		a := randRow(rng, n)
		b := randRow(rng, n)
		want, wantC := modelAnd(a, b)

		got := append([]uint64(nil), a...)
		AndTo(got, got, b) // dst aliases a
		if !slices.Equal(got, want) {
			t.Fatalf("n=%d: AndTo(dst==a) = %#x want %#x", n, got, want)
		}

		got = append([]uint64(nil), b...)
		if c := AndCountTo(got, a, got); c != wantC { // dst aliases b
			t.Fatalf("n=%d: AndCountTo(dst==b)=%d want %d", n, c, wantC)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("n=%d: AndCountTo(dst==b) = %#x want %#x", n, got, want)
		}
	}
}

func TestRowCache(t *testing.T) {
	var c RowCache
	c.Reset(130)
	if c.N() != 130 || c.Stride() != WordsFor(130) {
		t.Fatalf("RowCache dims = %d/%d", c.N(), c.Stride())
	}
	if c.Built(5) {
		t.Fatal("fresh row reported built")
	}
	r := c.Row(5)
	FillBits(r, []uint32{0, 64, 129})
	c.MarkBuilt(5)
	if !c.Built(5) || c.Built(6) {
		t.Fatal("Built flags wrong after MarkBuilt")
	}
	if !TestBit(c.Row(5), 129) {
		t.Fatal("row content lost")
	}
	// Reset invalidates without clearing words: the row must read as
	// unbuilt even though its bits are still physically set.
	c.Reset(130)
	if c.Built(5) {
		t.Fatal("row survived Reset")
	}
	// Shrink then regrow reuses storage.
	c.Reset(10)
	c.Reset(130)
	if c.Built(5) {
		t.Fatal("row survived shrink/regrow")
	}
}

// FuzzKernelParity checks every exported kernel against the per-bit
// model on fuzz-chosen words, lengths and offsets; a and b may each be
// up to three words longer than dst.
func FuzzKernelParity(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint8(0), uint8(0))
	f.Add(^uint64(0), uint64(1)<<63, uint8(17), uint8(3))
	f.Add(uint64(0xdeadbeef), uint64(0x0f0f0f0f0f0f0f0f), uint8(255), uint8(7))
	f.Fuzz(func(t *testing.T, seedA, seedB uint64, lenByte, offByte uint8) {
		n := int(lenByte) % 300
		off := int(offByte) % 8
		la := n + int(offByte>>3)%4
		lb := n + int(offByte>>5)%4
		rngA := rand.New(rand.NewSource(int64(seedA)))
		rngB := rand.New(rand.NewSource(int64(seedB)))
		back := randRow(rngA, la+off)
		other := randRow(rngB, lb+off)
		checkKernels(t, fmt.Sprintf("n=%d la=%d lb=%d off=%d", n, la, lb, off),
			randRow(rngA, n), back[off:off+la], other[off:off+lb])
	})
}
