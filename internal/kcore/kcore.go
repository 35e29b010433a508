// Package kcore implements the O(m) core-decomposition peeling
// algorithm of Batagelj and Zaversnik, used by the miner as the
// size-threshold preprocessing (paper T1 / Theorem 2): a vertex with
// degree < k = ⌈γ·(τsize−1)⌉ cannot appear in any valid quasi-clique,
// so shrinking a graph to its k-core is sound and, per the paper, the
// dominating factor in scaling beyond small graphs.
package kcore

import (
	"gthinkerqc/internal/graph"
)

// CoreNumbers returns the core number of every vertex: the largest k
// such that the vertex belongs to the k-core. Runs in O(m) via bucket
// sort.
func CoreNumbers(g *graph.Graph) []int {
	n := g.NumVertices()
	deg := make([]int, n)
	maxDeg := 0
	for v := 0; v < n; v++ {
		deg[v] = g.Degree(graph.V(v))
		if deg[v] > maxDeg {
			maxDeg = deg[v]
		}
	}
	// Bucket sort vertices by degree.
	bin := make([]int, maxDeg+2)
	for v := 0; v < n; v++ {
		bin[deg[v]]++
	}
	start := 0
	for d := 0; d <= maxDeg; d++ {
		c := bin[d]
		bin[d] = start
		start += c
	}
	pos := make([]int, n)  // position of vertex in vert
	vert := make([]int, n) // vertices sorted by degree
	for v := 0; v < n; v++ {
		pos[v] = bin[deg[v]]
		vert[pos[v]] = v
		bin[deg[v]]++
	}
	for d := maxDeg; d > 0; d-- {
		bin[d] = bin[d-1]
	}
	bin[0] = 0

	core := make([]int, n)
	copy(core, deg)
	for i := 0; i < n; i++ {
		v := vert[i]
		for _, uv := range g.Adj(graph.V(v)) {
			u := int(uv)
			if core[u] > core[v] {
				du := core[u]
				pu := pos[u]
				pw := bin[du]
				w := vert[pw]
				if u != w {
					pos[u], pos[w] = pw, pu
					vert[pu], vert[pw] = w, u
				}
				bin[du]++
				core[u]--
			}
		}
	}
	return core
}

// KCoreMask returns keep[v] = true iff v belongs to the k-core of g.
func KCoreMask(g *graph.Graph, k int) []bool {
	core := CoreNumbers(g)
	keep := make([]bool, len(core))
	for v, c := range core {
		keep[v] = c >= k
	}
	return keep
}

// PeelLocal peels a task-local subgraph, given local adjacency lists
// over indices [0, n), down to its k-core. It returns keep[i] = true
// iff local vertex i survives. Neighbors listed in adj that are out of
// range are ignored (they never existed). This is the in-task peeling
// of Algorithms 6 and 7 (t.g ← k-core(t.g)).
//
// extraDegree, if non-nil, gives per-vertex degree credit for adjacency
// entries that are not themselves peelable vertices — Algorithm 6
// counts 2-hop destinations that have not been pulled yet toward the
// degree check while never removing them.
func PeelLocal(adj [][]uint32, k int, extraDegree []int) []bool {
	var s PeelScratch
	return PeelLocalScratch(adj, k, extraDegree, &s)
}

// PeelScratch holds the reusable buffers of PeelLocalScratch. A zero
// PeelScratch is ready to use; buffers grow monotonically. Not safe
// for concurrent use.
type PeelScratch struct {
	deg   []int
	keep  []bool
	queue []uint32
}

// PeelLocalScratch is PeelLocal with caller-provided buffers: the
// per-task peels of the mining drivers run allocation-free in steady
// state. The returned mask aliases s and is valid until the next call
// with the same scratch.
func PeelLocalScratch(adj [][]uint32, k int, extraDegree []int, s *PeelScratch) []bool {
	n := len(adj)
	if cap(s.deg) < n {
		s.deg = make([]int, n)
		s.keep = make([]bool, n)
		s.queue = make([]uint32, 0, n)
	}
	deg := s.deg[:n]
	for v := 0; v < n; v++ {
		deg[v] = len(adj[v])
		if extraDegree != nil {
			deg[v] += extraDegree[v]
		}
	}
	keep := s.keep[:n]
	for i := range keep {
		keep[i] = true
	}
	queue := s.queue[:0]
	for v := 0; v < n; v++ {
		if deg[v] < k {
			keep[v] = false
			queue = append(queue, uint32(v))
		}
	}
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, u := range adj[v] {
			if int(u) < n && keep[u] {
				deg[u]--
				if deg[u] < k {
					keep[u] = false
					queue = append(queue, u)
				}
			}
		}
	}
	return keep
}
