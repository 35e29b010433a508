package graph

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"
)

// triangleWithTail: 0-1-2 triangle, 2-3 tail, isolated 4.
func triangleWithTail() *Graph {
	return FromEdges(5, [][2]V{{0, 1}, {1, 2}, {0, 2}, {2, 3}})
}

func TestCoreNumbersSmall(t *testing.T) {
	core := triangleWithTail().CoreNumbers()
	if want := []uint32{2, 2, 2, 1, 0}; !slices.Equal(core, want) {
		t.Fatalf("core = %v, want %v", core, want)
	}
	// The k-core is the test core[v] ≥ k.
	for _, tc := range []struct {
		k    uint32
		want []bool
	}{
		{0, []bool{true, true, true, true, true}},
		{2, []bool{true, true, true, false, false}},
		{3, []bool{false, false, false, false, false}},
	} {
		for v, c := range core {
			if (c >= tc.k) != tc.want[v] {
				t.Fatalf("%d-core membership of %d: core %d, want %v", tc.k, v, c, tc.want[v])
			}
		}
	}
}

func TestCoreNumbersClique(t *testing.T) {
	// K5: every vertex has core number 4.
	var edges [][2]V
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			edges = append(edges, [2]V{V(i), V(j)})
		}
	}
	for v, c := range FromEdges(5, edges).CoreNumbers() {
		if c != 4 {
			t.Fatalf("core[%d] = %d, want 4", v, c)
		}
	}
}

func TestCoreNumbersEmpty(t *testing.T) {
	if core := FromEdges(0, nil).CoreNumbers(); len(core) != 0 {
		t.Fatalf("core numbers of the empty graph: %v", core)
	}
}

// naiveCore computes core numbers by repeated peeling — the O(n·m)
// reference model.
func naiveCore(g *Graph) []uint32 {
	n := g.NumVertices()
	core := make([]uint32, n)
	for k := 1; ; k++ {
		alive := make([]bool, n)
		deg := make([]int, n)
		for v := 0; v < n; v++ {
			alive[v] = true
			deg[v] = g.Degree(V(v))
		}
		for changed := true; changed; {
			changed = false
			for v := 0; v < n; v++ {
				if alive[v] && deg[v] < k {
					alive[v] = false
					changed = true
					for _, u := range g.Adj(V(v)) {
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
				core[v] = uint32(k)
				any = true
			}
		}
		if !any {
			return core
		}
	}
}

func randomCoreGraph(seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	n := 1 + rng.Intn(40)
	b := NewBuilder(n)
	for i := 0; i < n*3; i++ {
		b.AddEdge(V(rng.Intn(n)), V(rng.Intn(n)))
	}
	return b.MustBuild()
}

func TestQuickCoreNumbersAgainstNaive(t *testing.T) {
	f := func(seed int64) bool {
		g := randomCoreGraph(seed)
		return slices.Equal(g.CoreNumbers(), naiveCore(g))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestCoreNumbersConcurrentFirstCallers: the array is computed once per
// graph however many goroutines ask first, and they all get that one
// slice (run under -race, this also checks the publication).
func TestCoreNumbersConcurrentFirstCallers(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		g := randomCoreGraph(seed)
		const callers = 8
		got := make([][]uint32, callers)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				got[i] = g.CoreNumbers()
			}(i)
		}
		close(start)
		wg.Wait()
		want := naiveCore(g)
		for i, core := range got {
			if !slices.Equal(core, want) {
				t.Fatalf("seed %d: caller %d got %v, want %v", seed, i, core, want)
			}
			if &core[0] != &got[0][0] {
				t.Fatalf("seed %d: callers 0 and %d got different arrays", seed, i)
			}
		}
	}
}
