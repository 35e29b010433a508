package graph

import (
	"bytes"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

// figure4 builds the 9-vertex illustrative graph of the paper's
// Figure 4 (a..i -> 0..8).
func figure4() *Graph {
	// Edges read off the paper's description: {a,b,c,d,e} nearly a
	// clique minus (a,b)? The paper states for S1={a,b,c,d}: every
	// vertex has >= 2 neighbors within S1, and Γ(d)={a,c,e,h,i},
	// Γ(e)={a,b,c,d}, B(e)={f,g,h,i}.
	const (
		a, b, c, d, e, f, gg, h, i = 0, 1, 2, 3, 4, 5, 6, 7, 8
	)
	return FromEdges(9, [][2]V{
		{a, b}, {a, c}, {a, d}, {a, e},
		{b, c}, {b, e},
		{c, d}, {c, e},
		{d, e},
		{d, h}, {d, i},
		{b, f}, {b, gg},
		{f, gg}, {h, i},
	})
}

func TestFigure4Shape(t *testing.T) {
	g := figure4()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Γ(d) = {a, c, e, h, i} per the paper.
	want := []V{0, 2, 4, 7, 8}
	if got := g.Adj(3); !slices.Equal(got, want) {
		t.Fatalf("Adj(d) = %v, want %v", got, want)
	}
	if g.Degree(3) != 5 {
		t.Fatalf("d(d) = %d, want 5", g.Degree(3))
	}
	// Γ(e) = {a, b, c, d}.
	if got := g.Adj(4); !slices.Equal(got, []V{0, 1, 2, 3}) {
		t.Fatalf("Adj(e) = %v", got)
	}
	// B̄(e) \ e = all other vertices (paper: B̄(e) is all vertices).
	w2 := g.Within2(4, nil)
	if !slices.Equal(w2, []V{0, 1, 2, 3, 5, 6, 7, 8}) {
		t.Fatalf("Within2(e) = %v", w2)
	}
}

func TestBuilderDedupAndSelfLoop(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0) // duplicate, reversed
	b.AddEdge(0, 1) // duplicate
	b.AddEdge(2, 2) // self loop dropped
	g := b.MustBuild()
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1", g.NumEdges())
	}
	if g.Degree(2) != 0 {
		t.Fatalf("self loop retained: deg(2)=%d", g.Degree(2))
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBuilderGrowsUniverse(t *testing.T) {
	b := NewBuilder(0)
	b.AddEdge(5, 9)
	g := b.MustBuild()
	if g.NumVertices() != 10 {
		t.Fatalf("NumVertices = %d, want 10", g.NumVertices())
	}
	if !g.HasEdge(9, 5) {
		t.Fatal("edge lost")
	}
}

func TestHasEdge(t *testing.T) {
	g := figure4()
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Error("HasEdge(a,b) false")
	}
	if g.HasEdge(0, 7) {
		t.Error("HasEdge(a,h) true")
	}
}

func TestConnectivity(t *testing.T) {
	g := figure4()
	if !g.IsConnectedSubset([]V{0, 1, 2, 3, 4}) {
		t.Error("S2 should be connected")
	}
	if g.IsConnectedSubset([]V{5, 7}) { // f and h are not adjacent
		t.Error("{f,h} reported connected")
	}
	if !g.IsConnectedSubset(nil) || !g.IsConnectedSubset([]V{3}) {
		t.Error("trivial sets must be connected")
	}

	g2 := FromEdges(5, [][2]V{{0, 1}, {2, 3}})
	if !g2.IsConnectedSubset([]V{2, 3}) || g2.IsConnectedSubset([]V{0, 1, 2, 3}) {
		t.Error("two disjoint edges: each connected, their union not")
	}
}

func TestLoadEdgeListSNAPStyle(t *testing.T) {
	in := `# Directed graph (each unordered pair of nodes is saved once)
# Nodes: 4 Edges: 3
10 20
20 30
% konect comment
30	10
40 40
`
	res, err := LoadEdgeList(strings.NewReader(in), LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	g := res.Graph
	if g.NumVertices() != 4 {
		t.Fatalf("NumVertices = %d, want 4 (10,20,30,40 remapped)", g.NumVertices())
	}
	if g.NumEdges() != 3 {
		t.Fatalf("NumEdges = %d, want 3 (self loop dropped)", g.NumEdges())
	}
	if res.OrigID[0] != 10 || res.OrigID[3] != 40 {
		t.Fatalf("OrigID = %v", res.OrigID)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestLoadEdgeListKeepIDs(t *testing.T) {
	res, err := LoadEdgeList(strings.NewReader("0 3\n1 3\n"), LoadOptions{KeepIDs: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Graph.NumVertices() != 4 || res.OrigID != nil {
		t.Fatalf("KeepIDs: n=%d orig=%v", res.Graph.NumVertices(), res.OrigID)
	}
	// The largest ID counts even when it appears only in a self loop.
	res, err = LoadEdgeList(strings.NewReader("0 3\n7 7\n"), LoadOptions{KeepIDs: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Graph.NumVertices() != 8 || res.Graph.NumEdges() != 1 {
		t.Fatalf("KeepIDs self loop: n=%d m=%d, want n=8 m=1", res.Graph.NumVertices(), res.Graph.NumEdges())
	}
}

func TestLoadEdgeListErrors(t *testing.T) {
	if _, err := LoadEdgeList(strings.NewReader("1\n"), LoadOptions{}); err == nil {
		t.Error("want error for short line")
	}
	if _, err := LoadEdgeList(strings.NewReader("a b\n"), LoadOptions{}); err == nil {
		t.Error("want error for non-numeric")
	}
	if _, err := LoadEdgeList(strings.NewReader("-1 2\n"), LoadOptions{KeepIDs: true}); err == nil {
		t.Error("want error for negative ID with KeepIDs")
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := figure4()
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	res, err := LoadEdgeList(&buf, LoadOptions{KeepIDs: true})
	if err != nil {
		t.Fatal(err)
	}
	if !graphsEqual(g, res.Graph) {
		t.Fatal("edge-list round trip changed graph")
	}
}

func TestStats(t *testing.T) {
	g := figure4()
	s := ComputeStats(g)
	if s.Vertices != 9 || s.Edges != 15 || s.MaxDegree != 5 || s.Isolated != 0 {
		t.Fatalf("stats = %+v", s)
	}
	if s.AvgDegree < 3.3 || s.AvgDegree > 3.4 {
		t.Fatalf("avg degree = %f", s.AvgDegree)
	}
	if s.String() == "" {
		t.Error("empty String()")
	}
	h := DegreeHistogram(g)
	total := 0
	for _, c := range h {
		total += c
	}
	if total != 9 {
		t.Fatalf("histogram sums to %d", total)
	}
}

func TestWithin2MatchesBFS(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		b := NewBuilder(n)
		for i := 0; i < n*2; i++ {
			b.AddEdge(V(rng.Intn(n)), V(rng.Intn(n)))
		}
		g := b.MustBuild()
		v := V(rng.Intn(n))
		got := g.Within2(v, nil)
		// Reference: BFS to depth 2.
		dist := map[V]int{v: 0}
		frontier := []V{v}
		for d := 1; d <= 2; d++ {
			var next []V
			for _, x := range frontier {
				for _, y := range g.Adj(x) {
					if _, ok := dist[y]; !ok {
						dist[y] = d
						next = append(next, y)
					}
				}
			}
			frontier = next
		}
		var want []V
		for u, d := range dist {
			if d >= 1 {
				want = append(want, u)
			}
		}
		slices.Sort(want)
		return slices.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func graphsEqual(a, b *Graph) bool {
	if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() {
		return false
	}
	for v := 0; v < a.NumVertices(); v++ {
		if !slices.Equal(a.Adj(V(v)), b.Adj(V(v))) {
			return false
		}
	}
	return true
}
