package quasiclique

import (
	"fmt"

	"gthinkerqc/internal/bitset"
	"gthinkerqc/internal/graph"
	"gthinkerqc/internal/kcore"
	"gthinkerqc/internal/store"
	"gthinkerqc/internal/vset"
)

// Sub is a task-local subgraph with vertices remapped to dense local
// indices [0, n). Label maps local index → global vertex ID and is
// strictly increasing, so comparisons on local indices agree with
// global ID order (which the set-enumeration tree relies on). Adj rows
// built by this package share one packed backing array (CSR-style),
// mirroring the graph substrate's layout.
type Sub struct {
	Label []graph.V
	Adj   [][]uint32 // sorted local adjacency

	// Dense, when non-nil, is the flat adjacency bit matrix of the
	// subgraph (row v = Γ(v) as bits). It is transient mining state,
	// not part of the subgraph's identity: the storage belongs to the
	// Miner currently bound to this Sub (Miner.Reset attaches it for
	// subgraphs up to the dense threshold and detaches it when the
	// miner moves on), and it is never serialized.
	Dense *bitset.Matrix

	// TwoHop, when non-nil, lazily caches per-vertex two-hop
	// reachability rows (row v = vertices within two hops of v) over
	// the same universe as Dense. Like Dense it is transient mining
	// state owned by the bound Miner, attached only alongside Dense,
	// and never serialized. Rows are built on first use by
	// Miner.twoHopRow; consult Built before reading one.
	TwoHop *bitset.RowCache
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
	vset.Sort(out)
	return out
}

// Scratch is the per-worker reusable state for task construction: an
// epoch-stamped global→local index map (replacing the per-call maps
// the hot paths used to allocate) and the candidate/vertex buffers of
// BuildRootSub. The marker doubles as the two-hop scratch for
// Within2Scratch — the two phases never overlap within a call. A zero
// Scratch is ready to use. Not safe for concurrent use — the serial
// driver owns one, and the G-thinker app threads one per worker.
type Scratch struct {
	marks  graph.Scratch // epoch-stamped marker over global vertex IDs
	idx    []uint32      // global → local index, valid when marked
	rowLen []uint32      // per-local-vertex row sizes (exact-count pass)
	cand   []graph.V     // BuildRootSub candidate buffer
	verts  []graph.V     // BuildRootSub vertex-set buffer

	remap   []int32           // InduceScratch local remap table
	keep    []uint32          // PeelKCoreScratch survivor list
	peel    kcore.PeelScratch // PeelKCoreScratch peel buffers
	rootS   []uint32          // serial driver's root S = {v}
	rootExt []uint32          // serial driver's root ext(S)

	// MakeSubtaskInto output buffers: the child subgraph and its
	// ⟨S′, ext′⟩ live here between calls, so the subtask spawn loop is
	// allocation-free until the Offload boundary copies them out.
	childKeep  []uint32   // sorted S ∪ ext (parent-local)
	childLabel []graph.V  // child Label
	childFlat  []uint32   // child packed adjacency
	childAdj   [][]uint32 // child row headers
	childS     []uint32   // S′ (child-local)
	childExt   []uint32   // ext′ (child-local)
	childSub   Sub        // child Sub header returned by MakeSubtaskInto
}

// begin starts a new global→local mapping generation over n vertices.
func (s *Scratch) begin(n int) {
	s.marks.Begin(n)
	if len(s.idx) < n {
		s.idx = make([]uint32, n)
	}
}

// SubFromGraph induces the subgraph of g on the sorted vertex set
// verts. verts is copied; the caller keeps ownership.
func SubFromGraph(g *graph.Graph, verts []graph.V) *Sub {
	var s Scratch
	return subFromGraph(g, verts, &s, true)
}

// SubFromGraphScratch is SubFromGraph with a caller-provided Scratch:
// only the three allocations that escape into the returned Sub remain
// (label, row headers, packed adjacency).
func SubFromGraphScratch(g *graph.Graph, verts []graph.V, s *Scratch) *Sub {
	return subFromGraph(g, verts, s, true)
}

// subFromGraph is the core induction. With copyLabel false the Sub's
// Label aliases verts, so the caller must guarantee verts outlives the
// Sub (or that the Sub dies first, as in the peeled root-task path).
func subFromGraph(g *graph.Graph, verts []graph.V, s *Scratch, copyLabel bool) *Sub {
	s.begin(g.NumVertices())
	for i, v := range verts {
		s.marks.Mark(v)
		s.idx[v] = uint32(i)
	}
	// Exact-count pass: row sizes, so rows slice one packed array
	// instead of growing n separate ones.
	if cap(s.rowLen) < len(verts) {
		s.rowLen = make([]uint32, len(verts))
	}
	s.rowLen = s.rowLen[:len(verts)]
	total := 0
	for i, v := range verts {
		c := uint32(0)
		for _, u := range g.Adj(v) {
			if s.marks.Marked(u) {
				c++
			}
		}
		s.rowLen[i] = c
		total += int(c)
	}
	flat := make([]uint32, 0, total)
	adj := make([][]uint32, len(verts))
	for i, v := range verts {
		start := len(flat)
		for _, u := range g.Adj(v) {
			if s.marks.Marked(u) {
				flat = append(flat, s.idx[u])
			}
		}
		adj[i] = flat[start:len(flat):len(flat)]
		// sorted: g.Adj sorted and verts→local monotone
	}
	label := verts
	if copyLabel {
		label = make([]graph.V, len(verts))
		copy(label, verts)
	}
	return &Sub{Label: label, Adj: adj}
}

// Induce returns the subgraph of s induced on the sorted local index
// set keep, with indices remapped densely. Rows are exact-counted into
// one packed backing array.
func (s *Sub) Induce(keep []uint32) *Sub {
	var sc Scratch
	return s.InduceScratch(keep, &sc)
}

// InduceScratch is Induce with a caller-provided Scratch: the remap
// table comes from the scratch, so only the three allocations that
// escape into the returned Sub remain (label, row headers, packed
// adjacency).
func (s *Sub) InduceScratch(keep []uint32, sc *Scratch) *Sub {
	if cap(sc.remap) < s.N() {
		sc.remap = make([]int32, s.N())
	}
	remap := sc.remap[:s.N()]
	for i := range remap {
		remap[i] = -1
	}
	for i, v := range keep {
		remap[v] = int32(i)
	}
	total := 0
	for _, v := range keep {
		for _, u := range s.Adj[v] {
			if remap[u] >= 0 {
				total++
			}
		}
	}
	flat := make([]uint32, 0, total)
	label := make([]graph.V, len(keep))
	adj := make([][]uint32, len(keep))
	for i, v := range keep {
		label[i] = s.Label[v]
		start := len(flat)
		for _, u := range s.Adj[v] {
			if r := remap[u]; r >= 0 {
				flat = append(flat, uint32(r))
			}
		}
		adj[i] = flat[start:len(flat):len(flat)]
	}
	return &Sub{Label: label, Adj: adj}
}

// PeelKCore returns the k-core of s as a new Sub plus the sorted local
// indices (w.r.t. s) that survived. If the core is empty it returns an
// empty Sub.
func (s *Sub) PeelKCore(k int) (*Sub, []uint32) {
	var sc Scratch
	return s.PeelKCoreScratch(k, &sc)
}

// PeelKCoreScratch is PeelKCore with a caller-provided Scratch: the
// peel buffers, survivor list, and induction remap table are all
// reused. The returned index slice aliases the scratch and is valid
// until its next use.
func (s *Sub) PeelKCoreScratch(k int, sc *Scratch) (*Sub, []uint32) {
	keepMask := kcore.PeelLocalScratch(s.Adj, k, nil, &sc.peel)
	sc.keep = sc.keep[:0]
	for i, ok := range keepMask {
		if ok {
			sc.keep = append(sc.keep, uint32(i))
		}
	}
	return s.InduceScratch(sc.keep, sc), sc.keep
}

// BuildDense fills m with the flat adjacency bit matrix of s and
// attaches it as s.Dense. The matrix storage stays owned by the
// caller (in practice the pooled Miner), so the view is only valid
// while that owner remains bound to s.
func (s *Sub) BuildDense(m *bitset.Matrix) {
	m.Reset(s.N())
	for i, row := range s.Adj {
		r := m.Row(i)
		for _, u := range row {
			bitset.SetBit(r, int(u))
		}
	}
	s.Dense = m
}

// DegreeInto counts, for vertex v, how many neighbors u have
// stamp[u] == epoch. The caller stamps the membership set first; this
// is how the miner computes the SS/SE/ES/EE degree quadruple (T2).
func (s *Sub) DegreeInto(v uint32, stamp []int64, epoch int64) int {
	d := 0
	for _, u := range s.Adj[v] {
		if stamp[u] == epoch {
			d++
		}
	}
	return d
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
	s.Dense = nil
	s.TwoHop = nil
	return nil
}
