package graph

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
)

// buildChecked builds edges over [0, n) and fails unless the CSR
// matches a per-row model: every vertex keeps a set of neighbours,
// listed sorted and deduplicated; self loops are dropped and the
// universe grows to the largest ID plus one.
func buildChecked(t *testing.T, n int, edges [][2]V) {
	t.Helper()
	b := NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range edges {
		n = max(n, int(max(e[0], e[1]))+1)
	}
	sets := make([]map[V]bool, n)
	for v := range sets {
		sets[v] = map[V]bool{}
	}
	for _, e := range edges {
		if e[0] != e[1] {
			sets[e[0]][e[1]] = true
			sets[e[1]][e[0]] = true
		}
	}
	if g.NumVertices() != n {
		t.Fatalf("n = %d, want %d", g.NumVertices(), n)
	}
	entries := 0
	for v, set := range sets {
		want := make([]V, 0, len(set))
		for u := range set {
			want = append(want, u)
		}
		slices.Sort(want)
		if got := g.Adj(V(v)); !slices.Equal(got, want) {
			t.Fatalf("row %d = %v, want %v", v, got, want)
		}
		entries += len(want)
	}
	if g.NumEdges() != entries/2 || len(g.neighbors) != entries {
		t.Fatalf("m = %d with %d entries, want %d", g.NumEdges(), len(g.neighbors), entries/2)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBuildMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for iter := 0; iter < 60; iter++ {
		n := 1 + rng.Intn(200)
		var edges [][2]V
		count := rng.Intn(4 * n)
		for i := 0; i < count; i++ {
			u := V(rng.Intn(n))
			var v V
			switch rng.Intn(10) {
			case 0: // self loop
				v = u
			case 1, 2, 3: // skew toward vertex 0 (hub rows)
				v = V(rng.Intn(1 + n/10))
			default:
				v = V(rng.Intn(n))
			}
			edges = append(edges, [2]V{u, v})
			if rng.Intn(5) == 0 { // duplicate, possibly reversed
				edges = append(edges, [2]V{v, u})
			}
		}
		buildChecked(t, n, edges)
	}
}

func TestBuildEdgeCases(t *testing.T) {
	// Empty graph, no edges.
	buildChecked(t, 0, nil)
	// Vertices but no edges.
	buildChecked(t, 17, nil)
	// One hub vertex holding every edge (single giant row).
	var star [][2]V
	for i := 1; i < 300; i++ {
		star = append(star, [2]V{0, V(i)})
		star = append(star, [2]V{0, V(i)}) // all duplicated
	}
	buildChecked(t, 300, star)
	// Self loops, duplicates and both directions of one edge.
	buildChecked(t, 3, [][2]V{{0, 1}, {1, 0}, {1, 1}, {0, 1}, {2, 2}})
	// An edge past the declared universe grows it; an isolated
	// high vertex below the declared size stays.
	buildChecked(t, 2, [][2]V{{0, 5}})
	buildChecked(t, 40, [][2]V{{0, 1}})
}

func TestBuildTooLargeError(t *testing.T) {
	old := maxAdjEntries
	maxAdjEntries = 8
	defer func() { maxAdjEntries = old }()
	b := NewBuilder(8)
	for i := 0; i < 6; i++ {
		b.AddEdge(V(i), V(i+1))
	}
	_, err := b.Build()
	var tle *TooLargeError
	if !errors.As(err, &tle) {
		t.Fatalf("want *TooLargeError, got %v", err)
	}
	if tle.Entries != 12 {
		t.Fatalf("Entries = %d, want 12", tle.Entries)
	}
	if tle.Error() == "" {
		t.Fatal("empty error string")
	}
}

func TestMustBuildPanicsOnOverflow(t *testing.T) {
	old := maxAdjEntries
	maxAdjEntries = 2
	defer func() { maxAdjEntries = old }()
	defer func() {
		if recover() == nil {
			t.Fatal("MustBuild did not panic")
		}
	}()
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.MustBuild()
}

func TestBuilderReserve(t *testing.T) {
	b := NewBuilder(4)
	b.Reserve(100)
	if cap(b.edges) < 200 {
		t.Fatalf("cap = %d, want >= 200", cap(b.edges))
	}
	b.AddEdge(0, 1)
	b.Reserve(1) // no-op shrink attempt
	if len(b.edges) != 2 {
		t.Fatalf("len = %d", len(b.edges))
	}
	g := b.MustBuild()
	if g.NumEdges() != 1 {
		t.Fatalf("edges = %d", g.NumEdges())
	}
}

func benchEdges(nVerts, nEdges int) *Builder {
	rng := rand.New(rand.NewSource(42))
	b := NewBuilder(nVerts)
	b.Reserve(nEdges)
	for i := 0; i < nEdges; i++ {
		b.AddEdge(V(rng.Intn(nVerts)), V(rng.Intn(nVerts)))
	}
	return b
}

func BenchmarkBuild(b *testing.B) {
	const nVerts, nEdges = 1 << 20, 10 << 20
	src := benchEdges(nVerts, nEdges)
	b.SetBytes(int64(8 * nEdges))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		bld := NewBuilder(src.n)
		bld.edges = slices.Clone(src.edges)
		b.StartTimer()
		if _, err := bld.Build(); err != nil {
			b.Fatal(err)
		}
	}
}
