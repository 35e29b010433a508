package graph

// CoreNumbers returns the core number of every vertex: the largest k
// such that v belongs to the k-core. The first call computes the array
// with Batagelj and Zaversnik's O(n + m) bucket pass; every later call,
// from any goroutine, returns the same slice. Callers must not modify
// it.
//
// A γ-quasi-clique with at least τsize vertices has minimum degree at
// least k = ⌈γ(τsize−1)⌉ inside itself, so it lies in the k-core (the
// paper's T1, Theorem 2): core[v] ≥ k is every mining path's test for
// whether v can belong to a result.
func (g *Graph) CoreNumbers() []uint32 {
	g.coreOnce.Do(func() { g.core = coreNumbers(g) })
	return g.core
}

// coreNumbers is the bucket pass: vertices sit in vert sorted by their
// current degree, bin[d] is where degree d starts, and taking vertices
// in that order fixes each one's core number as it is reached while
// its larger-degree neighbours move down one bucket.
func coreNumbers(g *Graph) []uint32 {
	n := g.NumVertices()
	core := make([]uint32, n) // the degrees, lowered as the pass peels
	maxDeg := uint32(0)
	for v := range core {
		core[v] = uint32(g.Degree(V(v)))
		maxDeg = max(maxDeg, core[v])
	}
	bin := make([]uint32, maxDeg+1)
	for _, d := range core {
		bin[d]++
	}
	start := uint32(0)
	for d, c := range bin {
		bin[d] = start
		start += c
	}
	pos := make([]uint32, n) // v's index in vert
	vert := make([]V, n)
	for v, d := range core {
		pos[v] = bin[d]
		vert[pos[v]] = V(v)
		bin[d]++
	}
	for d := maxDeg; d > 0; d-- {
		bin[d] = bin[d-1]
	}
	bin[0] = 0

	for i := range vert {
		v := vert[i]
		for _, u := range g.Adj(v) {
			if core[u] > core[v] {
				du, pu := core[u], pos[u]
				pw := bin[du]
				if w := vert[pw]; w != u {
					pos[u], pos[w] = pw, pu
					vert[pu], vert[pw] = w, u
				}
				bin[du]++
				core[u]--
			}
		}
	}
	return core
}
