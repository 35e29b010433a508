package bitset

import (
	"fmt"
	"math/rand"
	"testing"
)

// benchWidths spans one-word rows (a task of at most 64 vertices, the
// width every harness task mines at) through 256k-bit rows.
var benchWidths = []int{1, 2, 4, 16, 64, 256, 1024, 4096}

// benchWidth runs fn as the sub-benchmark of one row width, on fresh
// random rows.
func benchWidth(b *testing.B, width int, fn func(b *testing.B, a, bb, dst []uint64)) {
	rng := rand.New(rand.NewSource(1))
	a := randRow(rng, width)
	bb := randRow(rng, width)
	dst := make([]uint64, width)
	b.Run(fmt.Sprintf("w=%d", width), func(b *testing.B) {
		b.SetBytes(int64(width * 8))
		b.ReportAllocs()
		fn(b, a, bb, dst)
	})
}

func BenchmarkAndCount(b *testing.B) {
	for _, w := range benchWidths {
		benchWidth(b, w, func(b *testing.B, a, bb, _ []uint64) {
			s := 0
			for i := 0; i < b.N; i++ {
				s += AndCount(a, bb)
			}
			sinkInt = s
		})
	}
}

func BenchmarkAndTo(b *testing.B) {
	for _, w := range benchWidths {
		benchWidth(b, w, func(b *testing.B, a, bb, dst []uint64) {
			for i := 0; i < b.N; i++ {
				AndTo(dst, a, bb)
			}
		})
	}
}

func BenchmarkAndCountTo(b *testing.B) {
	for _, w := range benchWidths {
		benchWidth(b, w, func(b *testing.B, a, bb, dst []uint64) {
			s := 0
			for i := 0; i < b.N; i++ {
				s += AndCountTo(dst, a, bb)
			}
			sinkInt = s
		})
	}
}

func BenchmarkOrWith(b *testing.B) {
	for _, w := range benchWidths {
		benchWidth(b, w, func(b *testing.B, a, _, dst []uint64) {
			for i := 0; i < b.N; i++ {
				OrWith(dst, a)
			}
		})
	}
}

var sinkInt int
