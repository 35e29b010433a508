package main

import (
	"fmt"
	"sort"

	"gthinkerqc/internal/graph"
)

// rng is splitmix64. The benchmark owns its generator so that its
// inputs cannot drift when the repository's datagen package changes.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// blockSpec plants Count vertex-disjoint blocks of Size vertices whose
// internal edges are present with probability Density.
type blockSpec struct {
	Count   int
	Size    int
	Density float64
}

// graphSpec is a sparse random background over N vertices with dense
// blocks planted into it.
type graphSpec struct {
	N       int
	BgEdges int
	Blocks  []blockSpec
}

// structureSeed fixes the internal edges of every planted block.
// Search-tree size is exponential in a dense block and varies about
// tenfold between two random blocks of one size and density, so the
// run seed decides only what a deployment would see as chance: the
// background the k-core has to peel away, which vertex IDs the blocks
// occupy (hence their owners under hash partitioning), and the order
// of served jobs. The work inside the blocks is then the same for
// every seed, and times from different seeds can be compared.
const structureSeed = 0x6a09e667f3bcc908

// plant returns a builder holding every edge of spec for seed, in
// O(N + edges).
func plant(spec graphSpec, seed uint64) *graph.Builder {
	planted := 0
	for _, b := range spec.Blocks {
		planted += b.Count * b.Size
	}
	if planted > spec.N/2 {
		panic(fmt.Sprintf("bench: %d planted vertices do not fit %d", planted, spec.N))
	}
	r := &rng{s: seed}
	b := graph.NewBuilder(spec.N)
	b.Reserve(spec.BgEdges + planted*16)

	// Distinct IDs for the planted vertices, by rejection (planted is
	// at most half of N), then sorted: a block takes a consecutive run
	// of them, so the order of its members never depends on the seed.
	taken := make([]bool, spec.N)
	ids := make([]graph.V, 0, planted)
	for len(ids) < planted {
		v := r.intn(spec.N)
		if !taken[v] {
			taken[v] = true
			ids = append(ids, graph.V(v))
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	// A background edge between two planted vertices would change a
	// block, or join two, differently for every seed; those are
	// redrawn.
	for i := 0; i < spec.BgEdges; {
		u, v := r.intn(spec.N), r.intn(spec.N)
		if taken[u] && taken[v] {
			continue
		}
		b.AddEdge(graph.V(u), graph.V(v))
		i++
	}

	sr := &rng{s: structureSeed}
	for _, bs := range spec.Blocks {
		for c := 0; c < bs.Count; c++ {
			run := ids[:bs.Size]
			ids = ids[bs.Size:]
			for i := 0; i < bs.Size; i++ {
				for j := i + 1; j < bs.Size; j++ {
					if sr.float() < bs.Density {
						b.AddEdge(run[i], run[j])
					}
				}
			}
		}
	}
	return b
}

// generate builds the graph of spec for seed.
func generate(spec graphSpec, seed uint64) *graph.Graph {
	return plant(spec, seed).MustBuild()
}

// fingerprint hashes the vertex count and every adjacency row, so two
// graphs agree on it only if they are the same graph.
func fingerprint(g *graph.Graph) string {
	h := uint64(14695981039346656037)
	mix := func(x uint64) {
		h ^= x
		h *= 1099511628211
		h ^= h >> 29
	}
	n := g.NumVertices()
	mix(uint64(n))
	for v := 0; v < n; v++ {
		adj := g.Adj(graph.V(v))
		mix(uint64(len(adj)))
		for _, u := range adj {
			mix(uint64(u))
		}
	}
	return fmt.Sprintf("%016x", h)
}
