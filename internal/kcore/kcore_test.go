package kcore

import (
	"math/rand"
	"testing"
	"testing/quick"

	"gthinkerqc/internal/graph"
)

// triangleWithTail: 0-1-2 triangle, 2-3 tail, isolated 4.
func triangleWithTail() *graph.Graph {
	return graph.FromEdges(5, [][2]graph.V{{0, 1}, {1, 2}, {0, 2}, {2, 3}})
}

func TestCoreNumbersSmall(t *testing.T) {
	g := triangleWithTail()
	core := CoreNumbers(g)
	want := []int{2, 2, 2, 1, 0}
	for v := range want {
		if core[v] != want[v] {
			t.Fatalf("core = %v, want %v", core, want)
		}
	}
}

func TestCoreNumbersClique(t *testing.T) {
	// K5: every vertex has core number 4.
	var edges [][2]graph.V
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			edges = append(edges, [2]graph.V{graph.V(i), graph.V(j)})
		}
	}
	g := graph.FromEdges(5, edges)
	for v, c := range CoreNumbers(g) {
		if c != 4 {
			t.Fatalf("core[%d] = %d, want 4", v, c)
		}
	}
}

func TestKCoreMask(t *testing.T) {
	g := triangleWithTail()
	for _, tc := range []struct {
		k    int
		want []bool
	}{
		{0, []bool{true, true, true, true, true}},
		{2, []bool{true, true, true, false, false}},
		{3, []bool{false, false, false, false, false}},
	} {
		got := KCoreMask(g, tc.k)
		for v := range tc.want {
			if got[v] != tc.want[v] {
				t.Fatalf("%d-core mask = %v, want %v", tc.k, got, tc.want)
			}
		}
	}
}

func TestEmptyGraph(t *testing.T) {
	g := graph.FromEdges(0, nil)
	if len(CoreNumbers(g)) != 0 {
		t.Fatal("core numbers of empty graph")
	}
}

// naiveCore computes core numbers by repeated peeling — the O(n·m)
// reference model.
func naiveCore(g *graph.Graph) []int {
	n := g.NumVertices()
	core := make([]int, n)
	for k := 1; ; k++ {
		// Peel to k-core.
		alive := make([]bool, n)
		deg := make([]int, n)
		for v := 0; v < n; v++ {
			alive[v] = true
			deg[v] = g.Degree(graph.V(v))
		}
		for changed := true; changed; {
			changed = false
			for v := 0; v < n; v++ {
				if alive[v] && deg[v] < k {
					alive[v] = false
					changed = true
					for _, u := range g.Adj(graph.V(v)) {
						if alive[u] {
							deg[u]--
						}
					}
				}
			}
		}
		any := false
		for v := 0; v < n; v++ {
			if alive[v] {
				core[v] = k
				any = true
			}
		}
		if !any {
			return core
		}
	}
}

func TestQuickCoreNumbersAgainstNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		b := graph.NewBuilder(n)
		for i := 0; i < n*3; i++ {
			b.AddEdge(graph.V(rng.Intn(n)), graph.V(rng.Intn(n)))
		}
		g := b.MustBuild()
		got := CoreNumbers(g)
		want := naiveCore(g)
		for v := range want {
			if got[v] != want[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: in the k-core, every vertex has >= k neighbors inside the
// core, and the core is maximal (every excluded vertex would have < k
// neighbors if the peeling order were replayed).
func TestQuickKCoreInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(50)
		k := 1 + rng.Intn(5)
		b := graph.NewBuilder(n)
		for i := 0; i < n*2; i++ {
			b.AddEdge(graph.V(rng.Intn(n)), graph.V(rng.Intn(n)))
		}
		g := b.MustBuild()
		keep := KCoreMask(g, k)
		for v := 0; v < n; v++ {
			if !keep[v] {
				continue
			}
			d := 0
			for _, u := range g.Adj(graph.V(v)) {
				if keep[u] {
					d++
				}
			}
			if d < k {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPeelLocal(t *testing.T) {
	// Local triangle 0-1-2 plus pendant 3 attached to 2.
	adj := [][]uint32{{1, 2}, {0, 2}, {0, 1, 3}, {2}}
	keep := PeelLocal(adj, 2, nil)
	want := []bool{true, true, true, false}
	for i := range want {
		if keep[i] != want[i] {
			t.Fatalf("keep = %v, want %v", keep, want)
		}
	}
	// k=3 kills everything.
	keep = PeelLocal(adj, 3, nil)
	for i := range keep {
		if keep[i] {
			t.Fatalf("k=3 keep = %v", keep)
		}
	}
}

func TestPeelLocalExtraDegree(t *testing.T) {
	// Path 0-1 with extra degree credit 5 on both: nothing peels even
	// at k=3 because unpulled 2-hop destinations count toward degree.
	adj := [][]uint32{{1}, {0}}
	keep := PeelLocal(adj, 3, []int{5, 5})
	if !keep[0] || !keep[1] {
		t.Fatalf("keep = %v, want all true", keep)
	}
	// Without the credit they peel.
	keep = PeelLocal(adj, 3, nil)
	if keep[0] || keep[1] {
		t.Fatalf("keep = %v, want all false", keep)
	}
}

func TestPeelLocalCascade(t *testing.T) {
	// Chain 0-1-2-3-4: 2-core is empty (cascading peel).
	adj := [][]uint32{{1}, {0, 2}, {1, 3}, {2, 4}, {3}}
	keep := PeelLocal(adj, 2, nil)
	for i, k := range keep {
		if k {
			t.Fatalf("keep[%d] = true in chain 2-core", i)
		}
	}
}
