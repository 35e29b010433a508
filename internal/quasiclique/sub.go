package quasiclique

import (
	"fmt"
	"slices"

	"gthinkerqc/internal/graph"
	"gthinkerqc/internal/kcore"
	"gthinkerqc/internal/store"
)

// Sub is a task-local subgraph with vertices remapped to dense local
// indices [0, n). Label maps local index → global vertex ID and is
// strictly increasing, so comparisons on local indices agree with
// global ID order (which the set-enumeration tree relies on). Adj rows
// built by this package share one packed backing array (CSR-style),
// mirroring the graph substrate's layout. A Sub is only the subgraph:
// the bitset matrix mining runs on belongs to the Miner bound to it.
type Sub struct {
	Label []graph.V
	Adj   [][]uint32 // sorted local adjacency
}

// N returns the number of local vertices.
func (s *Sub) N() int { return len(s.Label) }

// NumEdges returns the number of undirected edges.
func (s *Sub) NumEdges() int {
	t := 0
	for _, a := range s.Adj {
		t += len(a)
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
// epoch-stamped ID → position map Induce relabels through (no O(n)
// clear per task), the candidate/vertex buffers of BuildRootSub, the
// peel buffers, and one buffer for a subtask's sorted S ∪ ext. The
// marker doubles as the two-hop scratch for Within2Scratch — the two
// phases never overlap within a call. Nothing a caller keeps lives
// here: every Sub the package returns owns its storage. A zero
// Scratch is ready to use. Not safe for concurrent use — the serial
// driver owns one, and the G-thinker app threads one per worker.
type Scratch struct {
	marks graph.Scratch // epoch-stamped marker over Induce's ID space
	idx   []uint32      // ID → position in Induce's keep, valid when marked
	cand  []graph.V     // BuildRootSub candidate buffer
	verts []graph.V     // BuildRootSub vertex-set buffer

	keep    []uint32          // peel survivors, or a subtask's sorted S ∪ ext
	peel    kcore.PeelScratch // PeelKCoreScratch peel buffers
	rootS   []uint32          // serial driver's root S = {v}
	rootExt []uint32          // serial driver's root ext(S)
}

// Induce is the one induction routine: every task subgraph — a root
// task's, a peeled core, a decomposed subtask, the engine's iteration-2
// build — comes out of it. keep is a strictly increasing set of IDs in
// [0, n), and row(i) returns keep[i]'s sorted neighbour row in that
// space. Induce marks keep in sc's epoch-stamped marker, so nothing of
// size n is cleared, counts the rows' entries inside keep exactly, and
// allocates one []uint32 of head + count + tail entries. Its middle
// holds the rows relabelled to positions in keep, and adj[i] slices
// row i out of it, capacity clamped; rows come out sorted because keep
// is sorted and the relabelling is monotone. The head and tail are
// left zero for the caller (a Label, a subtask's S′ and ext′), and
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

// PeelKCoreScratch returns the k-core of s as a new Sub plus the sorted
// local indices (w.r.t. s) that survived; an empty core is an empty
// Sub. The index slice aliases sc and is valid until its next use.
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

// AppendRaw appends the Sub's columnar encoding for the engine's GQS1
// spill path: the three flat arrays written verbatim, little-endian,
// with no reflection —
//
//	n       uint32        number of local vertices
//	flatLen uint32        total adjacency entries (2·|E|)
//	labels  [n]uint32
//	rowLens [n]uint32
//	flat    [flatLen]uint32
//
// DecodeRaw restores it with pointer fix-up, no reflective decode.
func (s *Sub) AppendRaw(dst []byte) []byte {
	total := 0
	for _, row := range s.Adj {
		total += len(row)
	}
	dst = store.AppendU32(dst, uint32(len(s.Label)))
	dst = store.AppendU32(dst, uint32(total))
	dst = store.AppendU32s(dst, s.Label)
	for _, row := range s.Adj {
		dst = store.AppendU32(dst, uint32(len(row)))
	}
	for _, row := range s.Adj {
		dst = store.AppendU32s(dst, row)
	}
	return dst
}

// DecodeRaw restores a Sub written by AppendRaw from c. The label and
// adjacency arrays may alias the cursor's buffer (each spilled task's
// regions are exclusively its own, so the usual in-place mining
// mutations remain safe); rows are rebuilt as capacity-clamped slices
// of the packed array. Corrupt input is an error, never a panic.
func (s *Sub) DecodeRaw(c *store.Cursor) error {
	n := int(c.U32())
	flatLen := int(c.U32())
	label := c.U32s(n)
	rowLen := c.U32s(n)
	flat := c.U32s(flatLen)
	if err := c.Err(); err != nil {
		return fmt.Errorf("quasiclique: corrupt raw Sub: %w", err)
	}
	adj, err := store.SplitRows(flat, rowLen)
	if err != nil {
		return fmt.Errorf("quasiclique: corrupt raw Sub: %w", err)
	}
	for _, u := range flat {
		if int(u) >= n {
			return fmt.Errorf("quasiclique: corrupt raw Sub: local index %d out of range [0,%d)", u, n)
		}
	}
	s.Label = label
	s.Adj = adj
	return nil
}
