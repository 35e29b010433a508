package graph

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// maxAdjEntries caps the packed adjacency array (offsets are uint32).
// A variable so tests can exercise the overflow path without
// allocating 16 GiB of edges.
var maxAdjEntries = math.MaxUint32

// parallelBuildMin is the adjacency-entry count below which Build
// stays serial: sharding a tiny graph costs more in goroutine and
// count-array setup than it saves. A variable so tests can force the
// parallel path on small inputs.
var parallelBuildMin = 1 << 20

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
// pass: count degrees, prefix-sum into offsets, scatter, then sort and
// deduplicate each row. Duplicate edges and self loops are dropped;
// direction is ignored. Large edge sets are assembled in parallel
// across GOMAXPROCS workers with output bit-identical to the serial
// path.
type Builder struct {
	n     int
	edges []V // flat (u, v) pairs, each undirected edge stored once

	// Workers caps build parallelism; 0 means GOMAXPROCS. Set to 1 to
	// force the serial path.
	Workers int
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
	workers := b.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// Per-worker count arrays cost workers*n words; don't let them
	// dwarf the edge data itself on sparse graphs.
	if b.n > 0 {
		if byEdges := len(b.edges) / b.n; workers > byEdges+1 {
			workers = byEdges + 1
		}
	}
	if workers > 1 && len(b.edges) >= parallelBuildMin {
		return b.buildParallel(workers), nil
	}
	return b.buildSerial(), nil
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

func (b *Builder) buildSerial() *Graph {
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
	return &Graph{offsets: offsets, neighbors: neighbors[:w:w], m: int(w) / 2}
}

// buildParallel assembles the same CSR as buildSerial across `workers`
// goroutines. Every phase is deterministic in its OUTPUT even though
// work interleaves: scatter order within a row varies with scheduling,
// but each row is then sorted and deduplicated, so the packed arrays
// that come out are bit-identical to the serial builder's.
//
// Phases:
//  1. per-worker degree counts over disjoint edge shards
//  2. fold counts into per-(worker,row) exclusive cursors + row totals
//  3. exclusive prefix sum of row totals -> scatter offsets
//  4. scatter, each worker writing only its own cursor ranges
//  5. per-row sort + in-row dedup over dynamically stolen vertex blocks
//  6. prefix sum of deduped row lengths + copy-out into an exact-size
//     neighbors array
func (b *Builder) buildParallel(workers int) *Graph {
	n := b.n
	edges := b.edges
	pairs := len(edges) / 2

	// Shard the edge pairs evenly; shard w covers pair range
	// [shardLo[w], shardLo[w+1]).
	shardLo := make([]int, workers+1)
	for w := 0; w <= workers; w++ {
		shardLo[w] = pairs * w / workers
	}

	// Phase 1: per-worker degree counts.
	counts := make([][]uint32, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cnt := make([]uint32, n)
			for i := 2 * shardLo[w]; i < 2*shardLo[w+1]; i += 2 {
				cnt[edges[i]]++
				cnt[edges[i+1]]++
			}
			counts[w] = cnt
		}(w)
	}
	wg.Wait()

	// Phase 2: over disjoint vertex ranges, turn counts[w][v] into the
	// exclusive per-row prefix across workers (worker w's first write
	// slot within row v, relative to the row start) and record each
	// row's total degree. Also accumulate per-range entry totals for
	// the phase-3 prefix sum.
	deg := make([]uint32, n)
	vertLo := make([]int, workers+1)
	for w := 0; w <= workers; w++ {
		vertLo[w] = n * w / workers
	}
	rangeSum := make([]uint64, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var sum uint64
			for v := vertLo[w]; v < vertLo[w+1]; v++ {
				var t uint32
				for _, cnt := range counts {
					c := cnt[v]
					cnt[v] = t
					t += c
				}
				deg[v] = t
				sum += uint64(t)
			}
			rangeSum[w] = sum
		}(w)
	}
	wg.Wait()

	// Phase 3: exclusive scan of range sums (tiny, serial), then each
	// range materializes its slice of the offsets array and shifts its
	// workers' cursors from row-relative to absolute positions.
	offsets := make([]uint32, n+1)
	var total uint64
	rangeBase := make([]uint64, workers)
	for w := 0; w < workers; w++ {
		rangeBase[w] = total
		total += rangeSum[w]
	}
	offsets[n] = uint32(total)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			run := uint32(rangeBase[w])
			for v := vertLo[w]; v < vertLo[w+1]; v++ {
				offsets[v] = run
				for _, cnt := range counts {
					cnt[v] += run
				}
				run += deg[v]
			}
		}(w)
	}
	wg.Wait()

	// Phase 4: scatter. Worker w owns the cursor array counts[w];
	// within any row the slot ranges of different workers are disjoint
	// by construction, so no two goroutines ever write the same index.
	neighbors := make([]V, total)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cur := counts[w]
			for i := 2 * shardLo[w]; i < 2*shardLo[w+1]; i += 2 {
				u, v := edges[i], edges[i+1]
				neighbors[cur[u]] = v
				cur[u]++
				neighbors[cur[v]] = u
				cur[v]++
			}
		}(w)
	}
	wg.Wait()
	b.edges = nil
	counts = nil

	// Phase 5: sort + dedup each row in place (compacted to the front
	// of its own slot range — never across rows, so shards can't race).
	// Vertex blocks are claimed off an atomic cursor so a few huge rows
	// don't serialize the tail. deg[v] becomes the deduped row length.
	const rowBlock = 2048
	var next atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				lo := int(next.Add(rowBlock)) - rowBlock
				if lo >= n {
					return
				}
				hi := min(lo+rowBlock, n)
				for v := lo; v < hi; v++ {
					row := neighbors[offsets[v]:offsets[v+1]]
					if len(row) == 0 {
						deg[v] = 0
						continue
					}
					slices.Sort(row)
					k := 1
					for i := 1; i < len(row); i++ {
						if row[i] != row[i-1] {
							row[k] = row[i]
							k++
						}
					}
					deg[v] = uint32(k)
				}
			}
		}()
	}
	wg.Wait()

	// Phase 6: prefix-sum the deduped lengths into the final offsets
	// and copy each row into an exact-size array. Compaction must not
	// be done in place here: shard k's writes could overrun shard k-1's
	// unread source, so the copy goes to fresh memory.
	newOffsets := make([]uint32, n+1)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var sum uint64
			for v := vertLo[w]; v < vertLo[w+1]; v++ {
				sum += uint64(deg[v])
			}
			rangeSum[w] = sum
		}(w)
	}
	wg.Wait()
	var packed uint64
	for w := 0; w < workers; w++ {
		rangeBase[w] = packed
		packed += rangeSum[w]
	}
	newOffsets[n] = uint32(packed)
	out := make([]V, packed)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			run := uint32(rangeBase[w])
			for v := vertLo[w]; v < vertLo[w+1]; v++ {
				newOffsets[v] = run
				run += uint32(copy(out[run:run+deg[v]], neighbors[offsets[v]:offsets[v]+deg[v]]))
			}
		}(w)
	}
	wg.Wait()
	return &Graph{offsets: newOffsets, neighbors: out, m: int(packed) / 2}
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
