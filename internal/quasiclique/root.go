package quasiclique

import (
	"math/bits"

	"gthinkerqc/internal/bitset"
	"gthinkerqc/internal/graph"
)

// RootSub builds the G-thinker app's root task (the end of Algorithm
// 7): the subgraph induced on members, peeled to its k-core, with the
// root members[0] as S = {0} and every other survivor in ext(S).
// members is a strictly increasing set of IDs in [0, n), and row(i)
// returns members[i]'s neighbour row in that space; entries outside
// members are ignored. It returns a nil Sub when the peel removes the
// root, since no quasi-clique has it as its minimum vertex then.
//
// Up to matrixCap members, RootSub fills the induced adjacency as a bit
// matrix in sc, peels it by popcount, and compacts the survivors into a
// rows Sub as Miner.Subtask compacts a child: rows, label, S and ext
// share one allocation, and binding the Sub is a copy. Above matrixCap
// it induces a list Sub and peels it with PeelKCoreScratch, because
// the miner splits such a root and a split reads Adj. Either way the
// root gets the same labels and the same adjacency. members is not
// retained; sc holds nothing the result needs.
func RootSub(members []graph.V, n int, row func(i int) []uint32, k int, sc *Scratch) (*Sub, []uint32, []uint32) {
	if len(members) > matrixCap {
		return rootList(members, n, row, k, sc)
	}
	sc.marks.Begin(n)
	if len(sc.idx) < n {
		sc.idx = make([]uint32, n)
	}
	for i, v := range members {
		sc.marks.Mark(v)
		sc.idx[v] = uint32(i)
	}
	nm := len(members)
	mat := &sc.mat
	mat.Reset(nm)
	for i := range members {
		r := mat.Row(i)
		for _, u := range row(i) {
			if sc.marks.Marked(u) {
				bitset.SetBit(r, int(sc.idx[u]))
			}
		}
	}
	alive, ok := sc.peelRows(k)
	if !ok {
		return nil, nil, nil
	}

	nk := sc.pack.init(alive)
	stride := bitset.WordsFor(nk)
	rows, ids := subtaskStorage(nk*stride, 2*nk)
	label, S, ext := ids[:nk:nk], ids[nk:nk+1:nk+1], ids[nk+1:]
	dst := rows
	i := 0
	for wi, w := range alive {
		for ; w != 0; w &= w - 1 {
			v := wi*64 + bits.TrailingZeros64(w)
			label[i] = members[v]
			sc.pack.row(dst[:stride:stride], mat.Row(v), alive)
			dst = dst[stride:]
			i++
		}
	}
	S[0] = 0 // the root is the smallest label
	for i := range ext {
		ext[i] = uint32(i + 1)
	}
	return &Sub{Label: label, Rows: rows}, S, ext
}

// peelRows peels sc.mat to its k-core by popcount and returns the
// survivors as a mask over its rows, or false as soon as the peel
// removes vertex 0. A removed vertex takes one off the degree of each
// neighbour still in the mask, the queue discipline of
// kcore.PeelLocal, so the survivors are the same k-core.
func (sc *Scratch) peelRows(k int) ([]uint64, bool) {
	mat := &sc.mat
	nm, stride := mat.N(), mat.Stride()
	if cap(sc.deg) < nm {
		sc.deg = make([]int32, nm)
		sc.queue = make([]uint32, 0, nm)
	}
	if cap(sc.alive) < stride {
		sc.alive = make([]uint64, stride)
	}
	deg, alive, queue := sc.deg[:nm], sc.alive[:stride], sc.queue[:0]
	clear(alive)
	for i := 0; i < nm; i++ {
		d := 0
		for _, w := range mat.Row(i) {
			d += bits.OnesCount64(w)
		}
		deg[i] = int32(d)
		switch {
		case d >= k:
			bitset.SetBit(alive, i)
		case i == 0:
			return nil, false
		default:
			queue = append(queue, uint32(i))
		}
	}
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for wi, w := range mat.Row(int(v)) {
			for w &= alive[wi]; w != 0; w &= w - 1 {
				u := wi*64 + bits.TrailingZeros64(w)
				if deg[u]--; int(deg[u]) >= k {
					continue
				}
				if u == 0 {
					return nil, false
				}
				alive[wi] &^= 1 << (u % 64)
				queue = append(queue, uint32(u))
			}
		}
	}
	sc.queue = queue
	return alive, true
}

// rootList is RootSub's path above matrixCap: Induce and
// PeelKCoreScratch make a list Sub.
func rootList(members []graph.V, n int, row func(i int) []uint32, k int, sc *Scratch) (*Sub, []uint32, []uint32) {
	_, adj := Induce(members, n, row, 0, 0, sc)
	peeled, _ := (&Sub{Label: members, Adj: adj}).PeelKCoreScratch(k, sc)
	if peeled.N() == 0 || peeled.Label[0] != members[0] {
		return nil, nil, nil
	}
	ext := make([]uint32, peeled.N()-1)
	for i := range ext {
		ext[i] = uint32(i + 1)
	}
	return peeled, []uint32{0}, ext
}
