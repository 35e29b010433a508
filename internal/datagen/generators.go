package datagen

import (
	"fmt"
	"slices"

	"gthinkerqc/internal/graph"
)

// ErdosRenyi returns a G(n, p) random graph.
func ErdosRenyi(n int, p float64, seed uint64) *graph.Graph {
	rng := NewRNG(seed)
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				b.AddEdge(graph.V(i), graph.V(j))
			}
		}
	}
	return b.MustBuild()
}

// ErdosRenyiM returns a G(n, m) random graph with exactly m distinct
// edges (m is clamped to the maximum possible).
func ErdosRenyiM(n, m int, seed uint64) *graph.Graph {
	maxM := n * (n - 1) / 2
	if m > maxM {
		m = maxM
	}
	rng := NewRNG(seed)
	b := graph.NewBuilder(n)
	seen := make(map[uint64]bool, m)
	for len(seen) < m {
		u := rng.Intn(n)
		v := rng.Intn(n)
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		key := uint64(u)<<32 | uint64(v)
		if seen[key] {
			continue
		}
		seen[key] = true
		b.AddEdge(graph.V(u), graph.V(v))
	}
	return b.MustBuild()
}

// BarabasiAlbert returns a preferential-attachment graph: starting from
// a small seed clique of m0 vertices, each new vertex attaches to
// mAttach existing vertices chosen proportionally to degree. This
// produces the heavy-tailed degree distributions of social networks
// such as the paper's YouTube and Hyves datasets.
func BarabasiAlbert(n, m0, mAttach int, seed uint64) *graph.Graph {
	if m0 < 1 {
		m0 = 1
	}
	if mAttach > m0 {
		mAttach = m0
	}
	rng := NewRNG(seed)
	b := graph.NewBuilder(n)
	// Repeated-endpoint list: choosing a uniform element is choosing a
	// vertex with probability proportional to its degree.
	endpoints := make([]graph.V, 0, 2*n*mAttach)
	for i := 0; i < m0 && i < n; i++ {
		for j := i + 1; j < m0 && j < n; j++ {
			b.AddEdge(graph.V(i), graph.V(j))
			endpoints = append(endpoints, graph.V(i), graph.V(j))
		}
	}
	// chosen keeps selection order: the endpoint list, and with it every
	// later draw, must not depend on map iteration order.
	chosen := make([]graph.V, 0, mAttach)
	for v := m0; v < n; v++ {
		chosen = chosen[:0]
		for len(chosen) < mAttach {
			var t graph.V
			if len(endpoints) == 0 {
				t = graph.V(rng.Intn(v))
			} else {
				t = endpoints[rng.Intn(len(endpoints))]
			}
			if int(t) == v || slices.Contains(chosen, t) {
				// Fall back to uniform to guarantee progress in
				// degenerate corners.
				t = graph.V(rng.Intn(v))
				if int(t) == v || slices.Contains(chosen, t) {
					continue
				}
			}
			chosen = append(chosen, t)
		}
		for _, t := range chosen {
			b.AddEdge(graph.V(v), t)
			endpoints = append(endpoints, graph.V(v), t)
		}
	}
	return b.MustBuild()
}

// PlantedConfig describes a graph made of a sparse background plus
// planted dense communities. Planted communities are the ground-truth
// quasi-cliques the miner should discover.
type PlantedConfig struct {
	N           int     // total vertices
	Background  float64 // background edge probability (ER)
	Communities []Community
	Seed        uint64
}

// Community is one planted dense group.
type Community struct {
	Size    int     // number of member vertices
	Density float64 // intra-community edge probability
	Count   int     // how many disjoint copies to plant (default 1)
}

// Planted generates the graph described by cfg. Community members are
// chosen as disjoint consecutive blocks shuffled into random IDs, so
// communities never overlap.
func Planted(cfg PlantedConfig) (*graph.Graph, [][]graph.V, error) {
	total := 0
	for _, c := range cfg.Communities {
		count := c.Count
		if count == 0 {
			count = 1
		}
		total += c.Size * count
	}
	if total > cfg.N {
		return nil, nil, fmt.Errorf("datagen: communities need %d vertices, graph has %d", total, cfg.N)
	}
	rng := NewRNG(cfg.Seed)
	perm := rng.Perm(cfg.N)
	b := graph.NewBuilder(cfg.N)

	// Background ER edges via geometric skipping for sparse p.
	if cfg.Background > 0 {
		addSparseER(b, cfg.N, cfg.Background, rng)
	}

	var plants [][]graph.V
	next := 0
	for _, c := range cfg.Communities {
		count := c.Count
		if count == 0 {
			count = 1
		}
		for rep := 0; rep < count; rep++ {
			members := make([]graph.V, c.Size)
			for i := range members {
				members[i] = graph.V(perm[next])
				next++
			}
			for i := 0; i < c.Size; i++ {
				for j := i + 1; j < c.Size; j++ {
					if rng.Float64() < c.Density {
						b.AddEdge(members[i], members[j])
					}
				}
			}
			plants = append(plants, members)
		}
	}
	return b.MustBuild(), plants, nil
}

// addSparseER adds G(n,p) edges in O(p·n²) expected time by skipping
// over non-edges geometrically.
func addSparseER(b *graph.Builder, n int, p float64, rng *RNG) {
	if p <= 0 {
		return
	}
	if p >= 1 {
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				b.AddEdge(graph.V(i), graph.V(j))
			}
		}
		return
	}
	// Iterate over the linearized strict upper triangle.
	totalPairs := float64(n) * float64(n-1) / 2
	pos := -1.0
	for {
		// Geometric skip: number of misses before next hit.
		u := rng.Float64()
		if u == 0 {
			u = 1e-18
		}
		skip := logFloor(u, 1-p)
		pos += 1 + skip
		if pos >= totalPairs {
			return
		}
		i, j := unrank(int64(pos), n)
		b.AddEdge(graph.V(i), graph.V(j))
	}
}

// logFloor returns floor(log(u)/log(base)) computed without math.Log on
// the hot path being a concern; clarity over speed here.
func logFloor(u, base float64) float64 {
	// base in (0,1); u in (0,1].
	k := 0.0
	acc := 1.0
	for acc*base > u {
		acc *= base
		k++
		if k > 1e7 { // safety against p≈0
			break
		}
	}
	return k
}

// unrank maps a linear index over the strict upper triangle of an n×n
// matrix to the (i, j) pair with i < j.
func unrank(pos int64, n int) (int, int) {
	i := 0
	rowLen := int64(n - 1)
	for pos >= rowLen {
		pos -= rowLen
		i++
		rowLen--
	}
	return i, i + 1 + int(pos)
}

// RMAT generates a recursive-matrix (Kronecker-like) graph with 2^scale
// vertices and approximately edges distinct edges, using partition
// probabilities a, b, c (d = 1-a-b-c). Duplicate edges and self loops
// are dropped, so the final count may be slightly lower.
func RMAT(scale int, edges int, a, b, c float64, seed uint64) *graph.Graph {
	n := 1 << scale
	rng := NewRNG(seed)
	gb := graph.NewBuilder(n)
	for e := 0; e < edges; e++ {
		u, v := 0, 0
		for bit := 0; bit < scale; bit++ {
			r := rng.Float64()
			switch {
			case r < a:
				// top-left: nothing to add
			case r < a+b:
				v |= 1 << bit
			case r < a+b+c:
				u |= 1 << bit
			default:
				u |= 1 << bit
				v |= 1 << bit
			}
		}
		gb.AddEdge(graph.V(u), graph.V(v))
	}
	return gb.MustBuild()
}
