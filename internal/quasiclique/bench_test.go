package quasiclique

import (
	"math/rand"
	"slices"
	"testing"

	"gthinkerqc/internal/graph"
)

// benchGraph mirrors the generator in internal/graph's benchmarks.
func benchGraph(n, attach int) *graph.Graph {
	b := graph.NewBuilder(n)
	state := uint64(0x9E3779B97F4A7C15)
	next := func(bound int) graph.V {
		state = state*6364136223846793005 + 1442695040888963407
		return graph.V((state >> 33) % uint64(bound))
	}
	for v := 1; v < n; v++ {
		for a := 0; a < attach; a++ {
			b.AddEdge(graph.V(v), next(v))
		}
	}
	return b.MustBuild()
}

// BenchmarkSubFromGraph measures task-subgraph materialization, the
// per-task hot path of root/sub task construction.
func BenchmarkSubFromGraph(b *testing.B) {
	g := benchGraph(20000, 8)
	verts := g.Within2(100, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := SubFromGraph(g, verts); s.N() != len(verts) {
			b.Fatal("bad sub")
		}
	}
}

// BenchmarkBuildRootSub is the serial driver's full root-task
// construction: the root gate and larger two-hop member scan over the
// live vertices (rootMembers), then RootSub's induced matrix, peel and
// compaction on G's own rows.
func BenchmarkBuildRootSub(b *testing.B) {
	g := benchGraph(20000, 8)
	par := Params{Gamma: 0.9, MinSize: 4}
	gt := NewGate(g, par, Options{})
	var sc Scratch
	var members []graph.V
	row := func(i int) []uint32 { return g.Adj(members[i]) }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if members = gt.rootMembers(graph.V(i%1000), &sc); members != nil {
			RootSub(members, g.NumVertices(), row, par.K(), &sc)
		}
	}
}

// denseCoreCandidates imitates what mining one dense 32-vertex core
// emits: a few thousand large sets over the same 32 vertices and, for
// each, about ten subsets that lost one to three members — ~36k sets in
// one component, nine in ten contained in another.
func denseCoreCandidates() [][]graph.V {
	rng := rand.New(rand.NewSource(1))
	var sets [][]graph.V
	for len(sets) < 36000 {
		perm := rng.Perm(32)
		top := make([]graph.V, 19+rng.Intn(4))
		for i := range top {
			top[i] = graph.V(1000 + perm[i])
		}
		slices.Sort(top)
		sets = append(sets, top)
		for k := 0; k < 10; k++ {
			sub := slices.Clone(top)
			for d := 1 + rng.Intn(3); d > 0; d-- {
				i := rng.Intn(len(sub))
				sub = slices.Delete(sub, i, i+1)
			}
			sets = append(sets, sub)
		}
	}
	return sets
}

// disjointCommunityCandidates imitates a graph of many small planted
// communities: 4000 vertex-disjoint 16-vertex blocks, each emitting
// its full set and a handful of subsets.
func disjointCommunityCandidates() [][]graph.V {
	rng := rand.New(rand.NewSource(2))
	var sets [][]graph.V
	for c := 0; c < 4000; c++ {
		full := make([]graph.V, 16)
		for i := range full {
			full[i] = graph.V(c*20 + i)
		}
		sets = append(sets, full)
		for k := 0; k < 5; k++ {
			sub := slices.Clone(full)
			for d := 1 + rng.Intn(4); d > 0; d-- {
				i := rng.Intn(len(sub))
				sub = slices.Delete(sub, i, i+1)
			}
			sets = append(sets, sub)
		}
	}
	return sets
}

// BenchmarkFilterMaximal measures the maximality post-filter on the two
// shapes that pull its index in opposite directions: one component
// with long posting rows, and thousands of components with one-word
// rows where any per-component overhead shows.
func BenchmarkFilterMaximal(b *testing.B) {
	for _, shape := range []struct {
		name string
		sets [][]graph.V
	}{
		{"dense-core", denseCoreCandidates()},
		{"disjoint-communities", disjointCommunityCandidates()},
	} {
		b.Run(shape.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			kept := 0
			for i := 0; i < b.N; i++ {
				kept = len(FilterMaximal(shape.sets))
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(shape.sets)), "ns/candidate")
			b.ReportMetric(float64(kept), "kept")
		})
	}
}
