// Package kcore peels task-local subgraphs to their k-core: the
// in-task peel of Algorithms 6 and 7 (t.g ← k-core(t.g)). A vertex
// with fewer than k = ⌈γ·(τsize−1)⌉ neighbours inside a task cannot
// appear in any valid quasi-clique of that task (Theorem 2), and
// removing it can drop its neighbours below k in turn.
//
// The whole graph's k-core is not computed here: every path reads it
// as core[v] ≥ k from the graph's one memoized core-number array,
// graph.(*Graph).CoreNumbers.
package kcore

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
