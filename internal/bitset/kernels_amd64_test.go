//go:build amd64 && !noasm

package bitset

import (
	"math/rand"
	"testing"
)

// TestAsmKernelsDirect calls the assembly entry points directly —
// below the wrappers' minAsmWords cutoff too — so the asm's own
// scalar tails (n in 1..7) are exercised, not just the vector loop.
func TestAsmKernelsDirect(t *testing.T) {
	if !SIMDAvailable() {
		t.Skip("no AVX2 on this host")
	}
	rng := rand.New(rand.NewSource(99))
	for n := 1; n <= 40; n++ {
		a := randRow(rng, n)
		b := randRow(rng, n)

		if got, want := andCountAsm(&a[0], &b[0], n), andCountGeneric(a, b); got != want {
			t.Fatalf("n=%d: andCountAsm=%d want %d", n, got, want)
		}

		dst := make([]uint64, n)
		want := make([]uint64, n)
		andToAsm(&dst[0], &a[0], &b[0], n)
		andToGeneric(want, a, b)
		for i := range dst {
			if dst[i] != want[i] {
				t.Fatalf("n=%d: andToAsm word %d = %#x want %#x", n, i, dst[i], want[i])
			}
		}

		clear(dst)
		wantC := andCountToGeneric(want, a, b)
		if got := andCountToAsm(&dst[0], &a[0], &b[0], n); got != wantC {
			t.Fatalf("n=%d: andCountToAsm=%d want %d", n, got, wantC)
		}
		for i := range dst {
			if dst[i] != want[i] {
				t.Fatalf("n=%d: andCountToAsm word %d = %#x want %#x", n, i, dst[i], want[i])
			}
		}

		copy(dst, a)
		copy(want, a)
		orWithAsm(&dst[0], &b[0], n)
		orWithGeneric(want, b)
		for i := range dst {
			if dst[i] != want[i] {
				t.Fatalf("n=%d: orWithAsm word %d = %#x want %#x", n, i, dst[i], want[i])
			}
		}
	}
}

func TestCPUIDProbe(t *testing.T) {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID == 0 {
		t.Fatal("CPUID leaf 0 returned max leaf 0")
	}
	// detectAVX2 must be stable and consistent with the cached value.
	if detectAVX2() != simdAvailable {
		t.Fatal("detectAVX2 not idempotent")
	}
}
