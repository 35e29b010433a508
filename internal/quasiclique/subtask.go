package quasiclique

import (
	"math/bits"
	"slices"
	"unsafe"

	"gthinkerqc/internal/bitset"
)

// Subtask materializes the divide-and-conquer child ⟨S, ext(S)⟩ of the
// bound Sub as an independent task over its own induced subgraph
// (Algorithm 8 line 19 / Algorithm 10 lines 20–21): the subgraph
// induced on S ∪ ext(S), which shrinks at every division, so subtask
// subgraphs — and their materialization cost, measured in Table 6 —
// keep getting smaller.
//
// The child is a rows Sub compacted from the bound matrix: row i is
// the matrix row of the i-th member of the sorted set K = S ∪ ext with
// its bits outside K dropped and the rest mapped through a position
// table, so a subtask never goes back through adjacency lists, and
// binding it is a copy. It is the child MakeSubtaskScratch(m.Sub, S,
// ext, …) induces, in rows: the same labels, and S′ and ext′ sorted
// local indices of the child.
//
// S and ext are disjoint local indices of the bound Sub (ext in any
// order), which has a matrix (at most matrixCap vertices), so the child
// does too. The child's row words, label, S′ and ext′ share one
// allocation, which the caller may retain (the Offload contract
// requires it): a subtask costs two allocations with its Sub header.
// Subtask builds K in the miner's two transient rows, which hold
// nothing across the Offload call it serves.
func (m *Miner) Subtask(S, ext []uint32) (*Sub, []uint32, []uint32) {
	inS, keep := m.tBits, m.t2Bits
	bitset.FillBits(inS, S)
	copy(keep, inS)
	for _, v := range ext {
		bitset.SetBit(keep, int(v))
	}
	n, ns := len(S)+len(ext), len(S)
	stride := bitset.WordsFor(n)
	rows, ids := subtaskStorage(n*stride, 2*n)
	label, newS, newExt := ids[:n:n], ids[n:n:n+ns], ids[n+ns:n+ns:2*n]
	// Members of K in ascending order take child indices 0, 1, ...;
	// S′ and ext′ come out sorted because K is walked in order.
	i := uint32(0)
	for wi, w := range keep {
		for ; w != 0; w &= w - 1 {
			v := wi*64 + bits.TrailingZeros64(w)
			m.pos[v] = i
			label[i] = m.Sub.Label[v]
			if bitset.TestBit(inS, v) {
				newS = append(newS, i)
			} else {
				newExt = append(newExt, i)
			}
			i++
		}
	}
	dst := rows
	for wi, w := range keep {
		for ; w != 0; w &= w - 1 {
			row := m.mat.Row(wi*64 + bits.TrailingZeros64(w))
			for xi, x := range row {
				for x &= keep[xi]; x != 0; x &= x - 1 {
					p := m.pos[xi*64+bits.TrailingZeros64(x)]
					dst[p/64] |= 1 << (p % 64)
				}
			}
			dst = dst[stride:]
		}
	}
	return &Sub{Label: label, Rows: rows}, newS, newExt
}

// subtaskStorage returns a child's nw row words and nids uint32s (its
// label, S′ and ext′) in one zeroed allocation: the uint32s are a view
// of the words past the rows, which the garbage collector keeps alive
// through either slice.
func subtaskStorage(nw, nids int) ([]uint64, []uint32) {
	buf := make([]uint64, nw+(nids+1)/2)
	if nids == 0 {
		return buf, nil
	}
	return buf[:nw:nw], unsafe.Slice((*uint32)(unsafe.Pointer(&buf[nw])), nids)
}

// MakeSubtaskScratch materializes the child ⟨S, ext(S)⟩ of parent as a
// list Sub through Induce: the oversize split's path, for a parent
// above matrixCap that has no matrix to compact from (see Subtask).
//
// S and ext are disjoint local indices of parent (ext in any order);
// the returned S′ and ext′ are sorted local indices of the returned
// child Sub. Induce fills the child straight into storage the caller
// may retain: label, packed adjacency, S′ and ext′ share one backing
// array (graph.V is an alias of uint32), so a child costs three
// allocations however large it is. Only the sorted S ∪ ext lives in sc.
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
