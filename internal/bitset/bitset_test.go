package bitset

import (
	"math/bits"
	"testing"
	"testing/quick"
)

// onesCount is the reference popcount of a row.
func onesCount(w []uint64) int {
	c := 0
	for _, x := range w {
		c += bits.OnesCount64(x)
	}
	return c
}

func TestMatrixBasics(t *testing.T) {
	var m Matrix
	m.Reset(130) // three words per row
	if m.N() != 130 || m.Stride() != 3 {
		t.Fatalf("N=%d Stride=%d", m.N(), m.Stride())
	}
	SetBit(m.Row(0), 5)
	SetBit(m.Row(0), 129)
	SetBit(m.Row(129), 0)
	if !TestBit(m.Row(0), 5) || !TestBit(m.Row(0), 129) || !TestBit(m.Row(129), 0) {
		t.Fatal("set bits not visible")
	}
	if TestBit(m.Row(1), 5) || TestBit(m.Row(128), 0) {
		t.Fatal("bit bled into wrong row")
	}
	if onesCount(m.Row(0)) != 2 {
		t.Fatalf("row 0 count = %d", onesCount(m.Row(0)))
	}
	// Reset must clear reused storage.
	m.Reset(64)
	if m.Stride() != 1 || onesCount(m.Row(0)) != 0 {
		t.Fatal("Reset left stale bits")
	}
	// Growing again reuses or reallocates, always clean.
	m.Reset(200)
	for i := 0; i < 200; i++ {
		if onesCount(m.Row(i)) != 0 {
			t.Fatalf("row %d dirty after grow", i)
		}
	}
}

func TestWordKernels(t *testing.T) {
	const n = 190
	mk := func(xs []uint32) []uint64 {
		w := make([]uint64, WordsFor(n))
		FillBits(w, xs)
		return w
	}
	a := mk([]uint32{0, 3, 63, 64, 127, 128, 189})
	b := mk([]uint32{3, 64, 100, 189})
	if got := AndCount(a, b); got != 3 {
		t.Fatalf("AndCount = %d", got)
	}
	dst := make([]uint64, len(a))
	AndTo(dst, a, b)
	if got := AppendBits(nil, dst); !equalU32(got, []uint32{3, 64, 189}) {
		t.Fatalf("AndTo bits = %v", got)
	}
	AndTo(dst, dst, mk([]uint32{3, 189}))
	if onesCount(dst) != 2 {
		t.Fatalf("in-place AndTo count = %d", onesCount(dst))
	}
	OrWith(dst, mk([]uint32{7}))
	if got := AppendBits(nil, dst); !equalU32(got, []uint32{3, 7, 189}) {
		t.Fatalf("OrWith bits = %v", got)
	}
	// FillBits clears previous content.
	FillBits(dst, []uint32{50})
	FillBits(dst, []uint32{51})
	if got := AppendBits(nil, dst); !equalU32(got, []uint32{51}) {
		t.Fatalf("FillBits did not clear: %v", got)
	}
}

// TestMatrixAgainstSet checks matrix rows against a [][]bool set model.
func TestMatrixAgainstSet(t *testing.T) {
	f := func(edges []uint16, probe []uint16) bool {
		const n = 150
		var m Matrix
		m.Reset(n)
		model := make([][]bool, n)
		for i := range model {
			model[i] = make([]bool, n)
		}
		for k := 0; k+1 < len(edges); k += 2 {
			i, j := int(edges[k])%n, int(edges[k+1])%n
			SetBit(m.Row(i), j)
			model[i][j] = true
		}
		for _, p := range probe {
			i := int(p) % n
			want := 0
			for j := 0; j < n; j++ {
				if TestBit(m.Row(i), j) != model[i][j] {
					return false
				}
				if model[i][j] {
					want++
				}
			}
			if onesCount(m.Row(i)) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func equalU32(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestMatrixLoad: Load takes rows verbatim at the stride Row slices,
// over storage a bigger earlier matrix left dirty, and keeps no alias.
func TestMatrixLoad(t *testing.T) {
	var m Matrix
	m.Reset(200)
	for i := 0; i < 200; i++ {
		m.Row(i)[0] = ^uint64(0)
	}
	words := []uint64{0, 0b110, 0b101, 0b011, 0} // rows 0–2 of a 3-vertex matrix at words[1:4]
	m.Load(3, words[1:4])
	if m.N() != 3 || m.Stride() != 1 || m.Row(0)[0] != 0b110 || m.Row(2)[0] != 0b011 {
		t.Fatalf("Load(3): N=%d stride=%d rows %b %b", m.N(), m.Stride(), m.Row(0), m.Row(2))
	}
	words[1] = 0
	if m.Row(0)[0] != 0b110 {
		t.Fatal("Load aliased its input")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Load of the wrong length did not panic")
		}
	}()
	m.Load(3, words[:2])
}
