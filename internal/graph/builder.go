package graph

import (
	"fmt"
	"math"
	"slices"
)

// maxAdjEntries caps the packed adjacency array (offsets are uint32).
// A variable so tests can exercise the overflow path without
// allocating 16 GiB of edges.
var maxAdjEntries = math.MaxUint32

// TooLargeError reports a graph whose packed adjacency would overflow
// the uint32 CSR offset range.
type TooLargeError struct {
	// Entries is the adjacency-entry count that overflowed (2x the
	// recorded edge count).
	Entries int
}

func (e *TooLargeError) Error() string {
	return fmt.Sprintf("graph: %d adjacency entries exceed the uint32 offset range (max %d); the CSR format caps graphs at ~2.1 billion directed entries", e.Entries, maxAdjEntries)
}

// Builder accumulates edges and produces an immutable CSR Graph in one
// serial pass: count degrees, prefix-sum into offsets, scatter, then
// sort and deduplicate each row. Duplicate edges and self loops are
// dropped; direction is ignored. The build is a one-time ingest step,
// linear in the edge count plus the row sorts.
type Builder struct {
	n     int
	edges []V // flat (u, v) pairs, each undirected edge stored once
}

// NewBuilder returns a Builder for a graph over vertices [0, n).
func NewBuilder(n int) *Builder {
	return &Builder{n: n}
}

// Grow ensures the builder covers vertices [0, n).
func (b *Builder) Grow(n int) {
	if n > b.n {
		b.n = n
	}
}

// NumEntries returns the number of adjacency entries recorded so far
// (2x the edge count, before deduplication).
func (b *Builder) NumEntries() int { return len(b.edges) }

// Reserve pre-sizes the internal edge buffer for n undirected edges,
// avoiding append regrowth on bulk loads.
func (b *Builder) Reserve(n int) {
	if need := 2 * n; cap(b.edges) < need {
		grown := make([]V, len(b.edges), need)
		copy(grown, b.edges)
		b.edges = grown
	}
}

// AddEdge records the undirected edge {u, v}. Self loops are ignored.
// The universe grows as needed.
func (b *Builder) AddEdge(u, v V) {
	if u == v {
		return
	}
	if n := int(max(u, v)) + 1; n > b.n {
		b.n = n
	}
	b.edges = append(b.edges, u, v)
}

// Build assembles the CSR arrays, sorts and deduplicates every
// adjacency row, and returns the Graph. The Builder must not be used
// afterwards. It returns a *TooLargeError when the packed adjacency
// would overflow the uint32 offset range.
func (b *Builder) Build() (*Graph, error) {
	// b.edges holds flat (u,v) pairs, and each pair scatters exactly
	// two adjacency entries — so len(b.edges) IS the entry count.
	if len(b.edges) > maxAdjEntries {
		return nil, &TooLargeError{Entries: len(b.edges)}
	}
	n := b.n
	// Degree count (each recorded edge contributes to both endpoints).
	deg := make([]uint32, n)
	for i := 0; i < len(b.edges); i += 2 {
		deg[b.edges[i]]++
		deg[b.edges[i+1]]++
	}
	offsets := make([]uint32, n+1)
	var sum uint32
	for v := 0; v < n; v++ {
		offsets[v] = sum
		sum += deg[v]
	}
	offsets[n] = sum
	// Scatter, reusing deg as per-row write cursors.
	neighbors := make([]V, sum)
	cursor := deg
	copy(cursor, offsets[:n])
	for i := 0; i < len(b.edges); i += 2 {
		u, v := b.edges[i], b.edges[i+1]
		neighbors[cursor[u]] = v
		cursor[u]++
		neighbors[cursor[v]] = u
		cursor[v]++
	}
	b.edges = nil
	// Sort each row, drop duplicates, and compact the packed array so
	// rows stay contiguous. w is the global write cursor; it only ever
	// trails the read position, so compaction is in place.
	var w uint32
	for v := 0; v < n; v++ {
		row := neighbors[offsets[v]:offsets[v+1]]
		slices.Sort(row)
		start := w
		var prev V
		for i, u := range row {
			if i > 0 && u == prev {
				continue
			}
			neighbors[w] = u
			w++
			prev = u
		}
		offsets[v] = start
	}
	offsets[n] = w
	return &Graph{offsets: offsets, neighbors: neighbors[:w:w], m: int(w) / 2}, nil
}

// MustBuild is Build for callers whose input is bounded by
// construction (generators, tests); it panics on TooLargeError.
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// FromEdges builds a graph over [0, n) from an edge list. It panics on
// inputs past the uint32 CSR range; use a Builder directly to handle
// that as an error.
func FromEdges(n int, edges [][2]V) *Graph {
	b := NewBuilder(n)
	b.Reserve(len(edges))
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	return b.MustBuild()
}
