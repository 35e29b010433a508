package kcore

import (
	"math/rand"
	"testing"
	"testing/quick"

	"gthinkerqc/internal/graph"
)

// Property: peeling a whole graph's adjacency with PeelLocal keeps
// exactly the vertices whose core number is at least k, and in that
// k-core every vertex has at least k neighbours inside it.
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
		keep := PeelLocal(wholeAdj(g), k, nil)
		core := g.CoreNumbers()
		for v := 0; v < n; v++ {
			if keep[v] != (int(core[v]) >= k) {
				return false
			}
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

// triangleWithTail: 0-1-2 triangle, 2-3 tail, isolated 4.
func triangleWithTail() *graph.Graph {
	return graph.FromEdges(5, [][2]graph.V{{0, 1}, {1, 2}, {0, 2}, {2, 3}})
}

// wholeAdj lists g's adjacency as PeelLocal's local lists.
func wholeAdj(g *graph.Graph) [][]uint32 {
	adj := make([][]uint32, g.NumVertices())
	for v := range adj {
		adj[v] = g.Adj(graph.V(v))
	}
	return adj
}

// The core number of v is the largest k whose peel keeps v: peeling the
// whole graph at every k reproduces the core numbers, and they agree
// with the graph's memoized ones.
func TestCoreNumbersSmall(t *testing.T) {
	g := triangleWithTail()
	adj := wholeAdj(g)
	want := []int{2, 2, 2, 1, 0}
	got := make([]int, len(want))
	for k := 1; k <= len(want); k++ {
		for v, kept := range PeelLocal(adj, k, nil) {
			if kept {
				got[v] = k
			}
		}
	}
	core := g.CoreNumbers()
	for v := range want {
		if got[v] != want[v] || int(core[v]) != want[v] {
			t.Fatalf("peeled core = %v, memoized core = %v, want %v", got, core, want)
		}
	}
}

func TestKCoreMask(t *testing.T) {
	g := triangleWithTail()
	adj := wholeAdj(g)
	core := g.CoreNumbers()
	for _, tc := range []struct {
		k    int
		want []bool
	}{
		{0, []bool{true, true, true, true, true}},
		{2, []bool{true, true, true, false, false}},
		{3, []bool{false, false, false, false, false}},
	} {
		got := PeelLocal(adj, tc.k, nil)
		for v := range tc.want {
			if got[v] != tc.want[v] || (int(core[v]) >= tc.k) != tc.want[v] {
				t.Fatalf("%d-core mask = %v, core = %v, want %v", tc.k, got, core, tc.want)
			}
		}
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
