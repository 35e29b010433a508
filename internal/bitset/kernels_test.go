package bitset

import (
	"math/rand"
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

// withSIMD runs f twice, once with the vector kernels selected and
// once forced scalar, restoring the prior setting after. On builds or
// CPUs without the vector kernels both runs are scalar, which keeps
// the test meaningful (it then checks the wrappers against the
// generics) without skipping.
func withSIMD(t *testing.T, f func(t *testing.T, simd bool)) {
	t.Helper()
	prev := SIMDEnabled()
	defer SetSIMD(prev)
	for _, on := range []bool{true, false} {
		SetSIMD(on)
		f(t, SIMDEnabled())
	}
}

// kernelLens covers the dispatch boundary (minAsmWords=8), odd
// lengths, non-multiple-of-8 tails, and the degenerate 0/1 cases.
var kernelLens = []int{0, 1, 2, 3, 7, 8, 9, 15, 16, 17, 31, 33, 64, 100, 255, 256, 1000}

func TestKernelParityAcrossDispatch(t *testing.T) {
	withSIMD(t, func(t *testing.T, simd bool) {
		rng := rand.New(rand.NewSource(42))
		for _, n := range kernelLens {
			a := randRow(rng, n)
			b := randRow(rng, n)

			if got, want := AndCount(a, b), andCountGeneric(a, b); got != want {
				t.Fatalf("simd=%v n=%d: AndCount=%d want %d", simd, n, got, want)
			}

			dst := make([]uint64, n)
			want := make([]uint64, n)
			AndTo(dst, a, b)
			andToGeneric(want, a, b)
			for i := range dst {
				if dst[i] != want[i] {
					t.Fatalf("simd=%v n=%d: AndTo word %d = %#x want %#x", simd, n, i, dst[i], want[i])
				}
			}

			clear(dst)
			wantC := andCountToGeneric(want, a, b)
			if got := AndCountTo(dst, a, b); got != wantC {
				t.Fatalf("simd=%v n=%d: AndCountTo=%d want %d", simd, n, got, wantC)
			}
			for i := range dst {
				if dst[i] != want[i] {
					t.Fatalf("simd=%v n=%d: AndCountTo word %d = %#x want %#x", simd, n, i, dst[i], want[i])
				}
			}

			copy(dst, a)
			copy(want, a)
			OrWith(dst, b)
			orWithGeneric(want, b)
			for i := range dst {
				if dst[i] != want[i] {
					t.Fatalf("simd=%v n=%d: OrWith word %d = %#x want %#x", simd, n, i, dst[i], want[i])
				}
			}
		}
	})
}

// TestKernelUnalignedTails runs the binary kernels on sub-slices at
// every offset of a shared backing array, so the asm sees every
// 8-byte (mis)alignment relative to 32-byte vector loads.
func TestKernelUnalignedTails(t *testing.T) {
	withSIMD(t, func(t *testing.T, simd bool) {
		rng := rand.New(rand.NewSource(7))
		const total = 64
		back := randRow(rng, total)
		other := randRow(rng, total)
		for off := 0; off < 8; off++ {
			for _, n := range []int{8, 9, 12, 24, 40} {
				a := back[off : off+n]
				b := other[off : off+n]
				if got, want := AndCount(a, b), andCountGeneric(a, b); got != want {
					t.Fatalf("simd=%v off=%d n=%d: AndCount=%d want %d", simd, off, n, got, want)
				}
				dst := make([]uint64, n)
				wantDst := make([]uint64, n)
				wantC := andCountToGeneric(wantDst, a, b)
				if got := AndCountTo(dst, a, b); got != wantC {
					t.Fatalf("simd=%v off=%d n=%d: AndCountTo=%d want %d", simd, off, n, got, wantC)
				}
				for i := range dst {
					if dst[i] != wantDst[i] {
						t.Fatalf("simd=%v off=%d n=%d: AndCountTo word %d mismatch", simd, off, n, i)
					}
				}
			}
		}
	})
}

// TestKernelLengthClamping checks the min-length guards: mismatched
// operand lengths only touch the common prefix and never read or
// write out of bounds. The one-word cases sit on the inlined path's
// guard: AndCount([1], [0]) is 0, not a read of b[0].
func TestKernelLengthClamping(t *testing.T) {
	withSIMD(t, func(t *testing.T, simd bool) {
		rng := rand.New(rand.NewSource(11))
		for _, tc := range []struct{ la, lb int }{
			{20, 12}, {12, 20}, {9, 8}, {8, 9}, {16, 0}, {0, 16}, {1, 40},
			{1, 0}, {0, 1}, {1, 1}, {1, 2}, {2, 1},
		} {
			a := randRow(rng, tc.la)
			b := randRow(rng, tc.lb)
			n := min(tc.la, tc.lb)
			want := andCountGeneric(a[:n], b[:n])
			if got := AndCount(a, b); got != want {
				t.Fatalf("simd=%v la=%d lb=%d: AndCount=%d want %d", simd, tc.la, tc.lb, got, want)
			}

			dst := randRow(rng, tc.la)
			tail := append([]uint64(nil), dst[n:]...)
			AndTo(dst, a, b)
			for i := 0; i < n; i++ {
				if dst[i] != a[i]&b[i] {
					t.Fatalf("simd=%v la=%d lb=%d: AndTo word %d wrong", simd, tc.la, tc.lb, i)
				}
			}
			for i, w := range dst[n:] {
				if w != tail[i] {
					t.Fatalf("simd=%v la=%d lb=%d: AndTo wrote past clamped length at word %d", simd, tc.la, tc.lb, n+i)
				}
			}

			dst = randRow(rng, tc.la)
			tail = append([]uint64(nil), dst[n:]...)
			if got := AndCountTo(dst, a, b); got != want {
				t.Fatalf("simd=%v la=%d lb=%d: AndCountTo=%d want %d", simd, tc.la, tc.lb, got, want)
			}
			for i, w := range dst[n:] {
				if w != tail[i] {
					t.Fatalf("simd=%v la=%d lb=%d: AndCountTo wrote past clamped length at word %d", simd, tc.la, tc.lb, n+i)
				}
			}

			dst = randRow(rng, tc.la)
			wantOr := append([]uint64(nil), dst...)
			orWithGeneric(wantOr[:n], b[:n])
			OrWith(dst, b)
			for i := range dst {
				if dst[i] != wantOr[i] {
					t.Fatalf("simd=%v la=%d lb=%d: OrWith word %d = %#x want %#x (clamped length %d)", simd, tc.la, tc.lb, i, dst[i], wantOr[i], n)
				}
			}
		}
	})
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
	withSIMD(t, func(t *testing.T, simd bool) {
		rng := rand.New(rand.NewSource(3))
		for _, n := range []int{1, 8, 17, 64} {
			a := randRow(rng, n)
			b := randRow(rng, n)

			got := append([]uint64(nil), a...)
			AndTo(got, got, b) // dst aliases a
			for i := range got {
				if got[i] != a[i]&b[i] {
					t.Fatalf("simd=%v n=%d: AndTo(dst==a) word %d wrong", simd, n, i)
				}
			}

			got = append([]uint64(nil), b...)
			wantC := andCountGeneric(a, b)
			if c := AndCountTo(got, a, got); c != wantC { // dst aliases b
				t.Fatalf("simd=%v n=%d: AndCountTo(dst==b)=%d want %d", simd, n, c, wantC)
			}
			for i := range got {
				if got[i] != a[i]&b[i] {
					t.Fatalf("simd=%v n=%d: AndCountTo(dst==b) word %d wrong", simd, n, i)
				}
			}
		}
	})
}

func TestKernelVariantNames(t *testing.T) {
	prev := SIMDEnabled()
	defer SetSIMD(prev)
	SetSIMD(false)
	if got := KernelVariant(); got != "scalar" {
		t.Fatalf("KernelVariant with SIMD off = %q, want scalar", got)
	}
	if SIMDEnabled() {
		t.Fatal("SIMDEnabled true after SetSIMD(false)")
	}
	SetSIMD(true)
	if SIMDAvailable() {
		if got := KernelVariant(); got != "avx2" {
			t.Fatalf("KernelVariant with SIMD on = %q, want avx2", got)
		}
	} else if SIMDEnabled() {
		t.Fatal("SetSIMD(true) enabled SIMD on a build without vector kernels")
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

// FuzzKernelParity cross-checks every dispatched kernel against its
// scalar reference on fuzz-chosen words, lengths, and offsets.
func FuzzKernelParity(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint8(0), uint8(0))
	f.Add(^uint64(0), uint64(1)<<63, uint8(17), uint8(3))
	f.Add(uint64(0xdeadbeef), uint64(0x0f0f0f0f0f0f0f0f), uint8(255), uint8(7))
	f.Fuzz(func(t *testing.T, seedA, seedB uint64, lenByte, offByte uint8) {
		n := int(lenByte) % 300
		off := int(offByte) % 8
		rngA := rand.New(rand.NewSource(int64(seedA)))
		rngB := rand.New(rand.NewSource(int64(seedB)))
		back := randRow(rngA, n+off)
		other := randRow(rngB, n+off)
		a := back[off : off+n]
		b := other[off : off+n]

		prev := SIMDEnabled()
		defer SetSIMD(prev)
		SetSIMD(true)

		if got, want := AndCount(a, b), andCountGeneric(a, b); got != want {
			t.Fatalf("AndCount=%d want %d (n=%d off=%d)", got, want, n, off)
		}
		dst := make([]uint64, n)
		want := make([]uint64, n)
		wantC := andCountToGeneric(want, a, b)
		if got := AndCountTo(dst, a, b); got != wantC {
			t.Fatalf("AndCountTo=%d want %d (n=%d off=%d)", got, wantC, n, off)
		}
		for i := range dst {
			if dst[i] != want[i] {
				t.Fatalf("AndCountTo word %d = %#x want %#x (n=%d off=%d)", i, dst[i], want[i], n, off)
			}
		}
		copy(dst, a)
		copy(want, a)
		OrWith(dst, b)
		orWithGeneric(want, b)
		for i := range dst {
			if dst[i] != want[i] {
				t.Fatalf("OrWith word %d = %#x want %#x (n=%d off=%d)", i, dst[i], want[i], n, off)
			}
		}
	})
}
