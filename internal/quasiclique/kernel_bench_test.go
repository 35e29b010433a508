package quasiclique

import (
	"math/rand"
	"testing"

	"gthinkerqc/internal/graph"
)

// denseBenchTask builds one dense root task: a G(n, p) random graph
// with an embedded denser community around vertex 0, prepared and
// rooted exactly as the serial driver does.
func denseBenchTask(b *testing.B, n int, p float64, par Params) (*Sub, []uint32, []uint32) {
	b.Helper()
	rng := rand.New(rand.NewSource(42))
	bld := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			pr := p
			if i < n/3 && j < n/3 {
				pr = 2.2 * p // denser community containing the root
			}
			if rng.Float64() < pr {
				bld.AddEdge(graph.V(i), graph.V(j))
			}
		}
	}
	g := bld.MustBuild()
	gk, kept := PrepareGraph(g, par, Options{})
	var best *Sub
	var bestV uint32
	for _, v := range kept {
		sub, localV := BuildRootSub(gk, v, par, Options{})
		if sub != nil && (best == nil || sub.N() > best.N()) {
			best, bestV = sub, localV
		}
	}
	if best == nil {
		b.Fatal("no root task")
	}
	S := []uint32{bestV}
	ext := make([]uint32, 0, best.N()-1)
	for i := 0; i < best.N(); i++ {
		if uint32(i) != bestV {
			ext = append(ext, uint32(i))
		}
	}
	return best, S, ext
}

// BenchmarkRecursiveMine measures the set-enumeration kernel on one
// dense task, including the per-task miner rebind the drivers pay.
func BenchmarkRecursiveMine(b *testing.B) {
	par := Params{Gamma: 0.85, MinSize: 5}
	sub, S, extT := denseBenchTask(b, 150, 0.22, par)
	m := NewPooledMiner(par, Options{})
	m.Emit = func([]uint32) {}
	ext := make([]uint32, len(extT))
	var nodes int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(ext, extT)
		m.Reset(sub)
		m.RecursiveMine(S, ext)
		nodes = m.Nodes
	}
	b.ReportMetric(float64(nodes), "nodes/op")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(nodes), "ns/node")
}

// BenchmarkMineGraph is the end-to-end serial driver on a random
// graph: root construction, mining, dedup, maximality filter.
func BenchmarkMineGraph(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	n := 400
	bld := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < 0.06 {
				bld.AddEdge(graph.V(i), graph.V(j))
			}
		}
	}
	g := bld.MustBuild()
	par := Params{Gamma: 0.9, MinSize: 4}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := MineGraph(g, par, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
