package graph

import "testing"

// benchGraph builds a deterministic scale-free-ish graph: each vertex
// attaches to a handful of earlier vertices chosen by a cheap LCG, so
// two-hop neighborhoods are non-trivial without any test-only deps.
func benchGraph(n, attach int) *Graph {
	b := NewBuilder(n)
	state := uint64(0x9E3779B97F4A7C15)
	next := func(bound int) V {
		state = state*6364136223846793005 + 1442695040888963407
		return V((state >> 33) % uint64(bound))
	}
	for v := 1; v < n; v++ {
		for a := 0; a < attach; a++ {
			b.AddEdge(V(v), next(v))
		}
	}
	return b.MustBuild()
}

// BenchmarkWithin2 is the per-root-task candidate-universe scan — the
// dominant cost of spawning root tasks. The satellite target is ≥2×
// fewer allocs/op than the seed's map-based implementation.
func BenchmarkWithin2(b *testing.B) {
	g := benchGraph(20000, 8)
	var dst []V
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = g.Within2(V(i%1000), dst[:0])
	}
}
