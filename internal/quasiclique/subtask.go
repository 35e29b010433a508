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
// induced on K = S ∪ ext(S), which shrinks at every division, so
// subtask subgraphs — and their materialization cost, measured in Table
// 6 — keep getting smaller.
//
// The child is a rows Sub compacted from the bound matrix: the row of a
// member of K is its matrix row with the bits outside K dropped and the
// rest moved to their child positions by word compaction (compactor),
// so a subtask never goes back through adjacency lists, and binding it
// is a copy. Restricted to K it is the child MakeSubtaskScratch(m.Sub,
// S, ext, …) induces, in rows: the same labels, and S′ and ext′ sorted
// local indices of the child.
//
// It also keeps witness rows, which decomposition would otherwise hide
// from the child's emission screen (extendable): the vertices w of the
// bound Sub outside K whose neighbours in S and in ext allow some set T
// the child emits to make T ∪ {w} a quasi-clique (addWitnesses), so no
// witness the screen could use is left out while there is room. A
// witness takes its place in the child's label order, but it is in
// neither S′ nor ext′, so it is never mined, and its row lists its
// neighbours in K while no row of K lists it, so the child's two-hop
// rows, and with them its search tree, are those of K alone. Witnesses
// are kept in ascending order while the child's stride stays
// WordsFor(|K|).
//
// S (sorted) and ext (any order) are disjoint local indices of the
// bound Sub, which has a matrix (at most matrixCap vertices), so the
// child does too. The child's row words, label, S′ and ext′ share one
// allocation, which the caller may retain (the Offload contract
// requires it): a subtask costs two allocations with its Sub header.
// Subtask builds its vertex sets in the miner's two transient rows,
// which hold nothing across the Offload call it serves.
func (m *Miner) Subtask(S, ext []uint32) (*Sub, []uint32, []uint32) {
	inK, keep := m.tBits, m.t2Bits
	bitset.FillBits(inK, S)
	for _, v := range ext {
		bitset.SetBit(inK, int(v))
	}
	copy(keep, inK)
	nk, ns := len(S)+len(ext), len(S)
	stride := bitset.WordsFor(nk)
	n := nk + m.addWitnesses(keep, inK, S, nk)
	rows, ids := subtaskStorage(n*stride, n+nk)
	label, newS, newExt := ids[:n:n], ids[n:n:n+ns], ids[n+ns:n+ns:n+nk]
	// Members of keep in ascending order take child indices 0, 1, ...;
	// S′ and ext′ come out sorted because keep is walked in order, and
	// S is sorted, so one cursor tells its members.
	i, j := uint32(0), 0
	for wi, w := range keep {
		for ; w != 0; w &= w - 1 {
			v := wi*64 + bits.TrailingZeros64(w)
			label[i] = m.Sub.Label[v]
			switch {
			case j < ns && S[j] == uint32(v):
				newS = append(newS, i)
				j++
			case bitset.TestBit(inK, v):
				newExt = append(newExt, i)
			}
			i++
		}
	}
	// Each row keeps its bits in K, moved to their child positions.
	m.pack.init(keep)
	dst := rows
	for wi, w := range keep {
		for ; w != 0; w &= w - 1 {
			m.pack.row(dst[:stride:stride], m.mat.Row(wi*64+bits.TrailingZeros64(w)), inK)
			dst = dst[stride:]
		}
	}
	return &Sub{Label: label, Rows: rows}, newS, newExt
}

// addWitnesses adds to keep the vertices of the bound Sub outside inK,
// the nk members of K, that can extend a set the child emits, in
// ascending order and only as many as leave the child's stride at
// WordsFor(nk), and returns how many it added, with no allocation. The
// child's sets T hold S and more, lie in K and have at least τsize
// vertices, so t0 = max(|S|+1, τsize) ≤ |T| ≤ nk. A vertex w with a
// neighbours in S and b in ext has at most a + min(|T|−|S|, b) of them
// in T, so T ∪ {w} is a γ-quasi-clique only if a+b ≥ ⌈γ·max(|S|+b, t0)⌉:
// one popcount per row word tests a+b against ⌈γ·t0⌉, and only a vertex
// that passes has its neighbours in S counted.
func (m *Miner) addWitnesses(keep, inK []uint64, S []uint32, nk int) int {
	room, t0 := 64*bitset.WordsFor(nk)-nk, max(len(S)+1, m.Par.MinSize)
	if room == 0 || t0 > nk {
		return 0
	}
	added, n, thr := 0, m.mat.N(), CeilMul(m.Par.Gamma, t0)
	for wi, k := range inK {
		out := ^k
		if tail := n - wi*64; tail < 64 {
			out &= 1<<tail - 1
		}
		for ; out != 0; out &= out - 1 {
			u := wi*64 + bits.TrailingZeros64(out)
			row := m.mat.Row(u)
			d := bitset.AndCount(row, inK)
			if d < thr {
				continue
			}
			a := 0
			for _, v := range S {
				if bitset.TestBit(row, int(v)) {
					a++
				}
			}
			if t := len(S) + d - a; t > t0 && d < m.ceilMul[t] {
				continue
			}
			keep[wi] |= 1 << (u % 64)
			if added++; added == room {
				return added
			}
		}
	}
	return added
}

// compactor packs bit rows onto the members of one keep mask: bit p of
// a row, for p in the mask, moves to bit rank(p), the number of mask
// members below p, and every other bit is dropped. It is how Subtask
// and RootSub compact a matrix into a child's rows. init builds, once
// per mask, each non-empty mask word's mover masks for Hacker's
// Delight's compress (Warren, fig. 7-1, at 64 bits) and its first
// rank; row then moves each of a row's words with one branch-free
// compress and one or two shifted ORs, instead of one lookup and one
// branch per bit. Its buffer grows monotonically.
type compactor struct {
	words []packWord
}

// packWord is one non-empty word of a compactor's mask.
type packWord struct {
	wi    int       // word index in the mask
	off   int       // rank of the word's lowest member
	split bool      // its members straddle a child word boundary
	mask  uint64    // the mask word
	mv    [6]uint64 // bits that move right by 1, 2, 4, 8, 16, 32 places
}

// init prepares the compactor for keep and returns its member count.
func (c *compactor) init(keep []uint64) int {
	c.words = c.words[:0]
	off := 0
	for wi, m := range keep {
		if m == 0 {
			continue
		}
		pw := packWord{wi: wi, off: off, mask: m}
		// Each step moves every bit right by the step's share of the
		// count of non-members below it (mk marks them, shifted in).
		mk := ^m << 1
		for i := range pw.mv {
			mp := mk ^ mk<<1
			mp ^= mp << 2
			mp ^= mp << 4
			mp ^= mp << 8
			mp ^= mp << 16
			mp ^= mp << 32
			mv := mp & m
			pw.mv[i] = mv
			m = m ^ mv | mv>>(1<<i)
			mk &^= mp
		}
		last := off + bits.OnesCount64(pw.mask) - 1
		pw.split = last/64 != off/64
		c.words = append(c.words, pw)
		off = last + 1
	}
	return off
}

// row ORs src ∩ filter, restricted to the mask and compacted, into dst,
// which holds WordsFor(members) words. filter is a subset of the mask
// or the mask itself; src and filter are at least as long as the mask.
func (c *compactor) row(dst, src, filter []uint64) {
	for i := range c.words {
		pw := &c.words[i]
		x := src[pw.wi] & filter[pw.wi] & pw.mask
		t := x & pw.mv[0]
		x = x ^ t | t>>1
		t = x & pw.mv[1]
		x = x ^ t | t>>2
		t = x & pw.mv[2]
		x = x ^ t | t>>4
		t = x & pw.mv[3]
		x = x ^ t | t>>8
		t = x & pw.mv[4]
		x = x ^ t | t>>16
		t = x & pw.mv[5]
		x = x ^ t | t>>32
		lo, sh := pw.off/64, uint(pw.off%64)
		dst[lo] |= x << sh
		if pw.split {
			dst[lo+1] |= x >> (64 - sh)
		}
	}
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
