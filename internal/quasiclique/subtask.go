package quasiclique

import "slices"

// MakeSubtaskScratch materializes the divide-and-conquer child
// ⟨S, ext(S)⟩ as an independent task over its own induced subgraph
// (Algorithm 8 line 19 / Algorithm 10 lines 20–21): the child's
// subgraph is the parent subgraph induced on S ∪ ext(S), which shrinks
// at every division so subtask subgraphs — and their materialization
// cost, measured in Table 6 — keep getting smaller.
//
// S and ext are disjoint local indices of parent (ext in any order);
// the returned S′ and ext′ are sorted local indices of the returned
// child Sub. Induce fills the child straight into storage the caller
// may retain (the Offload contract requires it): label, packed
// adjacency, S′ and ext′ share one backing array (graph.V is an alias
// of uint32), so a child costs three allocations however large it is.
// Only the sorted S ∪ ext lives in sc.
func MakeSubtaskScratch(parent *Sub, S, ext []uint32, sc *Scratch) (*Sub, []uint32, []uint32) {
	keep := append(append(sc.keep[:0], S...), ext...)
	slices.Sort(keep)
	sc.keep = keep
	n, ns := len(keep), len(S)
	buf, adj := Induce(keep, parent.N(), func(i int) []uint32 { return parent.Adj[keep[i]] }, n, ns+len(ext), sc)
	label := buf[:n:n]
	for i, v := range keep {
		label[i] = parent.Label[v]
	}
	// keep is sorted and S, ext are disjoint, so a vertex's child index
	// is its position in keep, which Induce left in sc.idx.
	off := len(buf) - ns - len(ext)
	newS := buf[off : off+ns : off+ns]
	for i, x := range S {
		newS[i] = sc.idx[x]
	}
	slices.Sort(newS)
	newExt := buf[off+ns:]
	for i, x := range ext {
		newExt[i] = sc.idx[x]
	}
	slices.Sort(newExt)
	return &Sub{Label: label, Adj: adj}, newS, newExt
}
