package quasiclique

import (
	"fmt"
	"math/bits"
	"slices"

	"gthinkerqc/internal/bitset"
	"gthinkerqc/internal/graph"
	"gthinkerqc/internal/kcore"
	"gthinkerqc/internal/store"
)

// Sub is a task-local subgraph with vertices remapped to dense local
// indices [0, n). Label maps local index → global vertex ID and is
// strictly increasing, so comparisons on local indices agree with
// global ID order (which the set-enumeration tree relies on). A Sub is
// only the subgraph: the bitset matrix mining runs on belongs to the
// Miner bound to it.
//
// Its adjacency takes one of two forms. A list Sub — a root task of
// the serial driver (BuildRootSub), a k-core peel's, a child of an
// oversize split, an engine root above matrixCap — holds sorted rows
// in Adj that share one packed backing array (CSR-style, mirroring the
// graph substrate's layout); Induce builds every one. A rows Sub — an
// engine root up to matrixCap, built and peeled as bit rows by RootSub,
// a decomposed subtask, compacted from its parent's matrix by
// Miner.Subtask, or either decoded from a spill file or a steal frame
// by DecodeRaw — holds Rows instead: n bit rows of bitset.WordsFor(n)
// words, row i the local neighbours of vertex i, which is the layout of
// the matrix a Miner binds, so binding one is a copy. A rows Sub is
// never above matrixCap. A subtask's rows may include witness rows
// (see Miner.Subtask): vertices outside its S′ ∪ ext′ whose rows list
// their neighbours in S′ ∪ ext′ and which no other row lists.
type Sub struct {
	Label []graph.V
	Adj   [][]uint32 // list Sub: sorted local adjacency
	Rows  []uint64   // rows Sub: n·bitset.WordsFor(n) adjacency words
}

// N returns the number of local vertices.
func (s *Sub) N() int { return len(s.Label) }

// NumEdges returns the number of undirected edges (a witness row's,
// listed one way only, count half).
func (s *Sub) NumEdges() int {
	t := 0
	for _, a := range s.Adj {
		t += len(a)
	}
	for _, w := range s.Rows {
		t += bits.OnesCount64(w)
	}
	return t / 2
}

// Labels translates local indices to sorted global IDs.
func (s *Sub) Labels(locals []uint32) []graph.V {
	out := make([]graph.V, len(locals))
	for i, l := range locals {
		out[i] = s.Label[l]
	}
	slices.Sort(out)
	return out
}

// Scratch is the per-worker reusable state for task construction: the
// epoch-stamped ID → position map Induce and RootSub relabel through
// (no O(n) clear per task), the candidate/vertex buffers of
// BuildRootSub, the peel buffers, one buffer for a split child's
// sorted S ∪ ext, and RootSub's bit matrix, peel state and compactor.
// The marker doubles as the two-hop scratch for Within2Scratch — the two
// phases never overlap within a call. Nothing a caller keeps lives
// here: every Sub the package returns owns its storage. A zero
// Scratch is ready to use. Not safe for concurrent use — the serial
// driver owns one, and the G-thinker app threads one per worker.
type Scratch struct {
	marks graph.Scratch // epoch-stamped marker over Induce's ID space
	idx   []uint32      // ID → position in Induce's keep, valid when marked
	cand  []graph.V     // BuildRootSub candidate buffer
	verts []graph.V     // BuildRootSub vertex-set buffer

	keep    []uint32          // peel survivors, or a split child's sorted S ∪ ext
	peel    kcore.PeelScratch // PeelKCoreScratch peel buffers
	rootS   []uint32          // serial driver's root S = {v}
	rootExt []uint32          // serial driver's root ext(S)

	mat   bitset.Matrix // RootSub's induced adjacency
	deg   []int32       // RootSub's peel degrees, per matrix row
	alive []uint64      // RootSub's peel survivors
	queue []uint32      // RootSub's peel queue
	pack  compactor     // RootSub's survivor compaction
}

// Induce is the one induction routine: every list Sub — a serial root
// task's, a peeled core, an oversize split's child, an engine root
// above matrixCap — comes out of it. keep is a strictly increasing set of IDs in
// [0, n), and row(i) returns keep[i]'s sorted neighbour row in that
// space. Induce marks keep in sc's epoch-stamped marker, so nothing of
// size n is cleared, counts the rows' entries inside keep exactly, and
// allocates one []uint32 of head + count + tail entries. Its middle
// holds the rows relabelled to positions in keep, and adj[i] slices
// row i out of it, capacity clamped; rows come out sorted because keep
// is sorted and the relabelling is monotone. The head and tail are
// left zero for the caller (a Label, a split child's S′ and ext′), and
// sc.idx maps each member of keep to its position until sc's next use.
func Induce(keep []uint32, n int, row func(i int) []uint32, head, tail int, sc *Scratch) (buf []uint32, adj [][]uint32) {
	sc.marks.Begin(n)
	if len(sc.idx) < n {
		sc.idx = make([]uint32, n)
	}
	marks, idx := &sc.marks, sc.idx
	for i, v := range keep {
		marks.Mark(v)
		idx[v] = uint32(i)
	}
	total := 0
	for i := range keep {
		for _, u := range row(i) {
			if marks.Marked(u) {
				total++
			}
		}
	}
	buf = make([]uint32, head+total+tail)
	adj = make([][]uint32, len(keep))
	off := head
	for i := range keep {
		start := off
		for _, u := range row(i) {
			if marks.Marked(u) {
				buf[off] = idx[u]
				off++
			}
		}
		adj[i] = buf[start:off:off]
	}
	return buf, adj
}

// SubFromGraph induces the subgraph of g on the sorted vertex set
// verts. verts is copied; the caller keeps ownership.
func SubFromGraph(g *graph.Graph, verts []graph.V) *Sub {
	var s Scratch
	return subFromGraph(g, verts, &s, true)
}

// subFromGraph induces g on the sorted set verts. With copyLabel false
// the Sub's Label aliases verts, so the caller must guarantee verts
// outlives the Sub (or that the Sub dies first, as in the peeled
// root-task path); otherwise the Label shares the rows' allocation.
func subFromGraph(g *graph.Graph, verts []graph.V, s *Scratch, copyLabel bool) *Sub {
	head := 0
	if copyLabel {
		head = len(verts)
	}
	buf, adj := Induce(verts, g.NumVertices(), func(i int) []uint32 { return g.Adj(verts[i]) }, head, 0, s)
	label := verts
	if copyLabel {
		label = buf[:head:head]
		copy(label, verts)
	}
	return &Sub{Label: label, Adj: adj}
}

// PeelKCoreScratch returns the k-core of the list Sub s as a new Sub
// plus the sorted local indices (w.r.t. s) that survived; an empty core
// is an empty Sub. The index slice aliases sc and is valid until its
// next use.
func (s *Sub) PeelKCoreScratch(k int, sc *Scratch) (*Sub, []uint32) {
	keepMask := kcore.PeelLocalScratch(s.Adj, k, nil, &sc.peel)
	keep := sc.keep[:0]
	for i, ok := range keepMask {
		if ok {
			keep = append(keep, uint32(i))
		}
	}
	sc.keep = keep
	n := len(keep)
	buf, adj := Induce(keep, s.N(), func(i int) []uint32 { return s.Adj[keep[i]] }, n, 0, sc)
	label := buf[:n:n]
	for i, v := range keep {
		label[i] = s.Label[v]
	}
	return &Sub{Label: label, Adj: adj}, keep
}

// AppendRaw appends the Sub's encoding for the engine's GQS1 spill
// and steal path: a rows Sub's fields written verbatim, little-endian,
// with no reflection —
//
//	n      uint32             number of local vertices
//	labels [n]uint32
//	rows   [n·⌈n/64⌉]uint64   row i: the local neighbours of vertex i as bits
//
// A list Sub is written as its rows. Precondition: n ≤ matrixCap
// (1 024), which every subtask meets because Miner.Subtask compacts it
// from a bound matrix; DecodeRaw refuses a larger record.
func (s *Sub) AppendRaw(dst []byte) []byte {
	dst = store.AppendU32(dst, uint32(s.N()))
	dst = store.AppendU32s(dst, s.Label)
	if s.Rows != nil {
		return store.AppendU64s(dst, s.Rows)
	}
	row := make([]uint64, bitset.WordsFor(s.N()))
	for _, adj := range s.Adj {
		bitset.FillBits(row, adj)
		dst = store.AppendU64s(dst, row)
	}
	return dst
}

// DecodeRaw restores a Sub written by AppendRaw from c as a rows Sub.
// The label and row arrays may alias the cursor's buffer (each spilled
// task's regions are exclusively its own, and mining only reads them).
// Corrupt input is an error, never a panic: DecodeRaw refuses a record
// above matrixCap, labels that do not increase, a bit at or past n, a
// diagonal (self-loop) bit, and truncated words.
func (s *Sub) DecodeRaw(c *store.Cursor) error {
	n := int(c.U32())
	if c.Err() == nil && n > matrixCap {
		return fmt.Errorf("quasiclique: corrupt raw Sub: %d vertices, above the cap of %d", n, matrixCap)
	}
	label := c.U32s(n)
	stride := bitset.WordsFor(n)
	rows := c.U64s(n * stride)
	if err := c.Err(); err != nil {
		return fmt.Errorf("quasiclique: corrupt raw Sub: %w", err)
	}
	for i := 1; i < n; i++ {
		if label[i] <= label[i-1] {
			return fmt.Errorf("quasiclique: corrupt raw Sub: label %d follows %d", label[i], label[i-1])
		}
	}
	for i := 0; i < n; i++ {
		row := rows[i*stride : (i+1)*stride]
		if n%64 != 0 && row[stride-1]>>(n%64) != 0 {
			return fmt.Errorf("quasiclique: corrupt raw Sub: row %d names a local index at or past %d", i, n)
		}
		if bitset.TestBit(row, i) {
			return fmt.Errorf("quasiclique: corrupt raw Sub: row %d names its own vertex", i)
		}
	}
	s.Label, s.Adj, s.Rows = label, nil, rows
	return nil
}
