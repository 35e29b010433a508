package quasiclique

import (
	"gthinkerqc/internal/vset"
)

// MakeSubtaskInto materializes the divide-and-conquer child ⟨S, ext(S)⟩
// as an independent task over its own induced subgraph (Algorithm 8
// line 19 / Algorithm 10 lines 20–21): the child's subgraph is the
// parent subgraph induced on S ∪ ext(S), which shrinks at every
// division so subtask subgraphs — and their materialization cost,
// measured in Table 6 — keep getting smaller.
//
// S and ext are local indices of parent; the returned S' and ext' are
// local indices of the returned child Sub. Everything returned aliases
// sc and is valid only until its next MakeSubtaskInto call — in steady
// state the call allocates nothing. Callers that retain the child
// (every Offload path does) use MakeSubtaskScratch, which copies the
// result out.
func MakeSubtaskInto(parent *Sub, S, ext []uint32, sc *Scratch) (*Sub, []uint32, []uint32) {
	keep := sc.childKeep[:0]
	keep = append(keep, S...)
	keep = append(keep, ext...)
	vset.Sort(keep)
	sc.childKeep = keep

	// Parent-local → child-local map. keep is sorted and S/ext are
	// disjoint, so a vertex's child index is its position in keep.
	if cap(sc.remap) < parent.N() {
		sc.remap = make([]int32, parent.N())
	}
	remap := sc.remap[:parent.N()]
	for i := range remap {
		remap[i] = -1
	}
	for i, v := range keep {
		remap[v] = int32(i)
	}

	// Exact-count pass so the packed adjacency never reallocates
	// mid-build (rows slice it as they go).
	total := 0
	for _, v := range keep {
		for _, u := range parent.Adj[v] {
			if remap[u] >= 0 {
				total++
			}
		}
	}
	if cap(sc.childFlat) < total {
		sc.childFlat = make([]uint32, 0, total)
	}
	if cap(sc.childLabel) < len(keep) {
		sc.childLabel = make([]uint32, len(keep))
	}
	if cap(sc.childAdj) < len(keep) {
		sc.childAdj = make([][]uint32, len(keep))
	}
	flat := sc.childFlat[:0]
	label := sc.childLabel[:len(keep)]
	adj := sc.childAdj[:len(keep)]
	for i, v := range keep {
		label[i] = parent.Label[v]
		start := len(flat)
		for _, u := range parent.Adj[v] {
			if r := remap[u]; r >= 0 {
				flat = append(flat, uint32(r))
			}
		}
		adj[i] = flat[start:len(flat):len(flat)]
		// sorted: parent rows sorted and keep→child monotone
	}
	sc.childFlat = flat

	newS := sc.childS[:0]
	for _, x := range S {
		newS = append(newS, uint32(remap[x]))
	}
	vset.Sort(newS)
	sc.childS = newS
	newExt := sc.childExt[:0]
	for _, x := range ext {
		newExt = append(newExt, uint32(remap[x]))
	}
	vset.Sort(newExt)
	sc.childExt = newExt

	sc.childSub = Sub{Label: label, Adj: adj}
	return &sc.childSub, newS, newExt
}

// MakeSubtaskScratch is the Offload-boundary form of MakeSubtaskInto:
// it builds the child in sc and then copies it out into independent
// storage the caller may retain (the Offload contract requires copies).
// The copy is compact — label, packed adjacency, S′, and ext′ all
// share one backing array (graph.V is an alias of uint32), so the
// boundary costs three allocations however large the child is.
func MakeSubtaskScratch(parent *Sub, S, ext []uint32, sc *Scratch) (*Sub, []uint32, []uint32) {
	child, sV, extV := MakeSubtaskInto(parent, S, ext, sc)
	n := child.N()
	flatLen := len(sc.childFlat)
	buf := make([]uint32, n+flatLen+len(sV)+len(extV))

	label := buf[:n:n]
	copy(label, child.Label)
	adj := make([][]uint32, n)
	off := n
	for i, row := range child.Adj {
		end := off + len(row)
		copy(buf[off:end], row)
		adj[i] = buf[off:end:end]
		off = end
	}
	s2 := buf[off : off+len(sV) : off+len(sV)]
	copy(s2, sV)
	off += len(sV)
	e2 := buf[off : off+len(extV) : off+len(extV)]
	copy(e2, extV)
	return &Sub{Label: label, Adj: adj}, s2, e2
}
