// Package graph provides the immutable undirected-graph substrate used
// by the quasi-clique miner and the G-thinker engine.
//
// # Layout
//
// A Graph is stored in CSR (compressed sparse row) form: one packed
// neighbors array plus an offsets array with n+1 entries, so the sorted
// adjacency list of vertex v is neighbors[offsets[v]:offsets[v+1]].
// Vertices are dense uint32 IDs in [0, N). Compared to a slice of
// per-vertex slices, CSR costs one allocation instead of n+1, keeps
// every adjacency list contiguous in memory (root-task construction
// walks neighbors-of-neighbors, so locality matters), and serializes
// as two flat arrays (see codec.go).
//
// # Sharing invariants
//
// Graphs are immutable after Build. That is what lets the engine's
// partitioned vertex table serve concurrent reads without locks: every
// worker on a machine scans the same offsets/neighbors arrays, and
// Adj returns a capacity-clamped sub-slice of the shared neighbors
// array, so callers cannot append into a sibling's row. Nothing in
// this package mutates a built Graph.
//
// The one value derived from a Graph and kept beside it is its
// core-number array (CoreNumbers, 4 B per vertex): computed once, in
// O(n + m), by whichever caller asks first, under a sync.Once, and
// shared read-only from then on. Every job, session and worker over
// the same *Graph reads that one array — the in-process machines of a
// session share the caller's graph, and each worker process its
// mapped one — so a job's k-core is the test core[v] ≥ k, never a
// fresh peel.
//
// Traversals that need per-call visited marks take a *Scratch — a
// reusable epoch-stamped marker — instead of allocating maps, so the
// miners' per-task hot paths (two-hop member collection, subgraph
// induction) are allocation-free when the caller threads one Scratch
// per worker.
//
// # Ingestion
//
// Builder.Build is one serial pass: per-vertex degrees, a prefix sum,
// a scatter, and a per-row sort/dedup. The result is canonical — the
// same edge set gives the same bytes in any insertion order — which
// is what lets the external-memory converter in internal/store write
// files identical to an in-memory build. Ingest runs once per graph,
// before any mining. LoadEdgeList parses text one line at a time in
// front of the build, and ScanEdgeList streams the same (u,v) pairs to
// a callback for callers that must not materialize the edge set in
// memory. Binary GQC2 files are written here (WriteBinary) and read by
// internal/store's MapGraph alone, through FromCSR.
package graph

import (
	"fmt"
	"slices"
	"sync"
)

// V is a vertex identifier.
type V = uint32

// Graph is an immutable simple undirected graph in CSR form.
type Graph struct {
	offsets   []uint32 // len n+1; row v is neighbors[offsets[v]:offsets[v+1]]
	neighbors []V      // packed sorted adjacency lists
	m         int      // number of undirected edges

	coreOnce sync.Once
	core     []uint32 // CoreNumbers, set once by coreOnce
}

// NumVertices returns |V|.
func (g *Graph) NumVertices() int { return len(g.offsets) - 1 }

// NumEdges returns |E| (each undirected edge counted once).
func (g *Graph) NumEdges() int { return g.m }

// Adj returns v's sorted adjacency list. The returned slice aliases
// the shared neighbors array (capacity-clamped); callers must not
// modify it.
func (g *Graph) Adj(v V) []V {
	lo, hi := g.offsets[v], g.offsets[v+1]
	return g.neighbors[lo:hi:hi]
}

// Degree returns d(v).
func (g *Graph) Degree(v V) int { return int(g.offsets[v+1] - g.offsets[v]) }

// HasEdge reports whether {u, v} ∈ E.
func (g *Graph) HasEdge(u, v V) bool {
	// Search the shorter adjacency list.
	if g.Degree(v) < g.Degree(u) {
		u, v = v, u
	}
	_, ok := slices.BinarySearch(g.Adj(u), v)
	return ok
}

// MaxDegree returns the maximum vertex degree (0 for the empty graph).
func (g *Graph) MaxDegree() int {
	max := 0
	for v := 0; v < g.NumVertices(); v++ {
		if d := g.Degree(V(v)); d > max {
			max = d
		}
	}
	return max
}

// FromCSR wraps prebuilt CSR arrays as a Graph without copying: the
// Graph aliases offsets and neighbors, so the caller controls their
// lifetime (internal/store points them into an mmap'd GQC2 file, in
// which case the Graph dies with the mapping). It is the one check a
// loaded graph passes: validateStructure's O(n) offsets invariants and
// O(|E|) row scan (IDs in range, rows strictly sorted, no self loops,
// edge count), so a corrupt file is an error here and never an index
// panic in a miner. Symmetry is not probed; run Validate for that.
func FromCSR(offsets []uint32, neighbors []V, m int) (*Graph, error) {
	g := &Graph{offsets: offsets, neighbors: neighbors, m: m}
	if err := g.validateStructure(); err != nil {
		return nil, err
	}
	return g, nil
}

// Scratch is a reusable epoch-stamped visited marker over the vertex
// universe. A zero Scratch is ready to use; it grows on demand and is
// cleared in O(1) by bumping the epoch, so traversals that thread one
// Scratch per worker never allocate per call. Not safe for concurrent
// use — give each worker its own.
type Scratch struct {
	stamp []uint32
	epoch uint32
}

// Begin starts a new mark generation over a universe of n vertices.
// All previous marks become invisible.
func (s *Scratch) Begin(n int) {
	if len(s.stamp) < n {
		s.stamp = make([]uint32, n)
		s.epoch = 0
	}
	s.epoch++
	if s.epoch == 0 { // wrapped: stale stamps could alias, clear once
		clear(s.stamp)
		s.epoch = 1
	}
}

// Mark marks v in the current generation.
func (s *Scratch) Mark(v V) { s.stamp[v] = s.epoch }

// Marked reports whether v was marked in the current generation.
func (s *Scratch) Marked(v V) bool { return s.stamp[v] == s.epoch }

// Within2 appends to dst every vertex u ≠ v with distance δ(u,v) ≤ 2
// (the paper's B̄(v) minus v itself), sorted increasing, and returns the
// extended slice: the candidate universe of a task spawned from v
// under diameter-2 pruning (P1, valid for γ ≥ 0.5). It allocates its
// own marker per call; it is the reference the miners' member
// collections are tested against, not a hot path.
func (g *Graph) Within2(v V, dst []V) []V {
	var s Scratch
	s.Begin(g.NumVertices())
	s.Mark(v) // excluded from the result
	adjV := g.Adj(v)
	for _, u := range adjV {
		if !s.Marked(u) {
			s.Mark(u)
			dst = append(dst, u)
		}
	}
	for _, u := range adjV {
		for _, w := range g.Adj(u) {
			if !s.Marked(w) {
				s.Mark(w)
				dst = append(dst, w)
			}
		}
	}
	slices.Sort(dst)
	return dst
}

// IsConnectedSubset reports whether the subgraph induced by the sorted
// vertex set S is connected. The empty set is considered connected.
func (g *Graph) IsConnectedSubset(S []V) bool {
	if len(S) <= 1 {
		return true
	}
	seen := make([]bool, len(S))
	stack := []int{0}
	seen[0] = true
	visited := 1
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range g.Adj(S[i]) {
			// S is sorted, so membership and index come from one
			// binary search — no per-call map.
			j, ok := slices.BinarySearch(S, w)
			if ok && !seen[j] {
				seen[j] = true
				visited++
				stack = append(stack, j)
			}
		}
	}
	return visited == len(S)
}

// validateStructure checks the invariants that make a Graph safe to
// traverse: offsets start at 0, are monotone and end at |neighbors|;
// every row is strictly sorted, self-loop-free and in range; and
// |neighbors| is 2m. It does not probe symmetry — that is Validate's
// per-edge binary search, too costly for every load.
func (g *Graph) validateStructure() error {
	if len(g.offsets) == 0 || g.offsets[0] != 0 {
		return fmt.Errorf("graph: offsets must start at 0")
	}
	n := g.NumVertices()
	for v := 0; v < n; v++ {
		if g.offsets[v+1] < g.offsets[v] {
			return fmt.Errorf("graph: offsets not monotone at %d", v)
		}
	}
	if int(g.offsets[n]) != len(g.neighbors) {
		return fmt.Errorf("graph: offsets end %d != |neighbors| = %d",
			g.offsets[n], len(g.neighbors))
	}
	for v := 0; v < n; v++ {
		a := g.Adj(V(v))
		if len(a) == 0 {
			continue
		}
		prev := a[0]
		if prev == V(v) {
			return fmt.Errorf("graph: self loop at %d", v)
		}
		for _, u := range a[1:] {
			if u <= prev {
				return fmt.Errorf("graph: adjacency of %d not strictly sorted", v)
			}
			if u == V(v) {
				return fmt.Errorf("graph: self loop at %d", v)
			}
			prev = u
		}
		// Strictly sorted: the last ID is the largest.
		if int(prev) >= n {
			return fmt.Errorf("graph: edge (%d,%d) out of range", v, prev)
		}
	}
	if len(g.neighbors) != 2*g.m {
		return fmt.Errorf("graph: edge count %d != sum(deg)/2 = %d", g.m, len(g.neighbors)/2)
	}
	return nil
}

// Validate checks all structural invariants including symmetry and
// returns an error describing the first violation. Intended for tests
// and loaders of untrusted data.
func (g *Graph) Validate() error {
	if err := g.validateStructure(); err != nil {
		return err
	}
	for v := 0; v < g.NumVertices(); v++ {
		for _, u := range g.Adj(V(v)) {
			if _, ok := slices.BinarySearch(g.Adj(u), V(v)); !ok {
				return fmt.Errorf("graph: edge (%d,%d) not symmetric", v, u)
			}
		}
	}
	return nil
}
