package quasiclique

import (
	"math/rand"
	"testing"

	"gthinkerqc/internal/graph"
)

// benchTask is one root task of a benchmark graph, rooted as the serial
// driver roots it.
type benchTask struct {
	name string
	par  Params
	sub  *Sub
	S    []uint32
	ext  []uint32
}

// benchTasks returns the tasks BenchmarkRecursiveMine times, one per
// matrix width:
//   - 1word: a 32-vertex block planted at density 0.87 in a sparse
//     48-vertex graph, mined at γ 0.9, τsize 16 — the shape of the
//     harness's hardcore graph, whose tasks all fit one word;
//   - 3word: a 150-vertex G(n, p) with a denser community around
//     vertex 0, mined at γ 0.85, τsize 5.
func benchTasks(tb testing.TB) []benchTask {
	tb.Helper()
	hard := Params{Gamma: 0.9, MinSize: 16}
	wide := Params{Gamma: 0.85, MinSize: 5}
	return []benchTask{
		rootBenchTask(tb, "1word", plantedGraph(rand.New(rand.NewSource(42)), 48, 0.05, 1, 32, 0.87), hard),
		rootBenchTask(tb, "3word", denseGraph(150, 0.22), wide),
	}
}

// denseGraph is a G(n, p) random graph with an embedded community of
// n/3 vertices, vertex 0 among them, at edge probability 2.2p.
func denseGraph(n int, p float64) *graph.Graph {
	rng := rand.New(rand.NewSource(42))
	bld := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			pr := p
			if i < n/3 && j < n/3 {
				pr = 2.2 * p
			}
			if rng.Float64() < pr {
				bld.AddEdge(graph.V(i), graph.V(j))
			}
		}
	}
	return bld.MustBuild()
}

// rootBenchTask prepares g and returns its largest root task.
func rootBenchTask(tb testing.TB, name string, g *graph.Graph, par Params) benchTask {
	tb.Helper()
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
		tb.Fatalf("%s: no root task", name)
	}
	ext := make([]uint32, 0, best.N()-1)
	for i := 0; i < best.N(); i++ {
		if uint32(i) != bestV {
			ext = append(ext, uint32(i))
		}
	}
	return benchTask{name: name, par: par, sub: best, S: []uint32{bestV}, ext: ext}
}

// BenchmarkRecursiveMine measures the set-enumeration kernel on one
// dense task per matrix width, including the per-task miner rebind the
// drivers pay, and reports the cost per search-tree node.
func BenchmarkRecursiveMine(b *testing.B) {
	for _, tk := range benchTasks(b) {
		b.Run(tk.name, func(b *testing.B) {
			m := NewPooledMiner(tk.par, Options{})
			m.Emit = func([]uint32) {}
			ext := make([]uint32, len(tk.ext))
			var nodes int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(ext, tk.ext)
				m.Reset(tk.sub)
				m.RecursiveMine(tk.S, ext)
				nodes = m.Nodes
			}
			b.ReportMetric(float64(nodes), "nodes/op")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(nodes), "ns/node")
		})
	}
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
