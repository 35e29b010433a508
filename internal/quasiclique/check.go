package quasiclique

import (
	"slices"

	"gthinkerqc/internal/graph"
)

// IsQuasiClique reports whether the vertex set S (sorted) induces a
// γ-quasi-clique of g per Definition 1: connected, and every member
// adjacent to at least ⌈γ·(|S|−1)⌉ of the others. Unlike the miner's
// internal check this verifies connectivity explicitly, so it is valid
// for any γ ∈ [0, 1]; use it for verification and ground truth.
func IsQuasiClique(g *graph.Graph, S []graph.V, gamma float64) bool {
	if len(S) == 0 {
		return false
	}
	need := CeilMul(gamma, len(S)-1)
	for _, v := range S {
		if intersectCount(g.Adj(v), S) < need {
			return false
		}
	}
	return g.IsConnectedSubset(S)
}

// intersectCount returns |a ∩ b| for sorted strictly increasing a, b.
func intersectCount(a, b []uint32) int {
	n, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// OneStepExtensible reports whether some single vertex u ∉ S yields a
// γ-quasi-clique S ∪ {u}. If true, S is certainly not maximal. The
// converse does NOT hold (deciding maximality is NP-hard, [32]); this
// is a cheap necessary-condition check used by cmd/qcverify.
func OneStepExtensible(g *graph.Graph, S []graph.V, gamma float64) bool {
	// Only neighbors of S members can connect S ∪ {u}.
	cand := map[graph.V]bool{}
	inS := map[graph.V]bool{}
	for _, v := range S {
		inS[v] = true
	}
	for _, v := range S {
		for _, u := range g.Adj(v) {
			if !inS[u] {
				cand[u] = true
			}
		}
	}
	for u := range cand {
		su := make([]graph.V, 0, len(S)+1)
		su = append(su, S...)
		su = append(su, u)
		slices.Sort(su)
		if IsQuasiClique(g, su, gamma) {
			return true
		}
	}
	return false
}

// IsSubsetSorted reports whether sorted a ⊆ sorted b.
func IsSubsetSorted(a, b []graph.V) bool {
	if len(a) > len(b) {
		return false
	}
	i := 0
	for _, x := range a {
		for i < len(b) && b[i] < x {
			i++
		}
		if i >= len(b) || b[i] != x {
			return false
		}
		i++
	}
	return true
}

// SetsEqual reports whether two collections contain the same sets,
// ignoring order. Both are canonicalized in place.
func SetsEqual(a, b [][]graph.V) bool {
	if len(a) != len(b) {
		return false
	}
	SortSets(a)
	SortSets(b)
	for i := range a {
		if !slices.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}
