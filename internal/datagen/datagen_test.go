package datagen

import (
	"slices"
	"testing"
	"testing/quick"

	"gthinkerqc/internal/graph"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(43)
	same := true
	a2 := NewRNG(42)
	for i := 0; i < 10; i++ {
		if a2.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestRNGRanges(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 1000; i++ {
		if n := r.Intn(10); n < 0 || n >= 10 {
			t.Fatalf("Intn out of range: %d", n)
		}
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %f", f)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) must panic")
		}
	}()
	r.Intn(0)
}

func TestRNGPerm(t *testing.T) {
	r := NewRNG(1)
	p := r.Perm(50)
	seen := make([]bool, 50)
	for _, x := range p {
		if x < 0 || x >= 50 || seen[x] {
			t.Fatalf("bad permutation: %v", p)
		}
		seen[x] = true
	}
}

func TestErdosRenyiDeterministicAndValid(t *testing.T) {
	g1 := ErdosRenyi(100, 0.1, 5)
	g2 := ErdosRenyi(100, 0.1, 5)
	if g1.NumEdges() != g2.NumEdges() {
		t.Fatal("ER not deterministic")
	}
	if err := g1.Validate(); err != nil {
		t.Fatal(err)
	}
	// Expected edges ≈ p * n(n-1)/2 = 495; allow wide tolerance.
	if m := g1.NumEdges(); m < 300 || m > 700 {
		t.Fatalf("ER edge count implausible: %d", m)
	}
	if ErdosRenyi(50, 0, 1).NumEdges() != 0 {
		t.Fatal("p=0 must produce no edges")
	}
	full := ErdosRenyi(10, 1, 1)
	if full.NumEdges() != 45 {
		t.Fatalf("p=1 edges = %d, want 45", full.NumEdges())
	}
}

func TestErdosRenyiM(t *testing.T) {
	g := ErdosRenyiM(50, 100, 3)
	if g.NumEdges() != 100 {
		t.Fatalf("edges = %d, want 100", g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Clamping.
	g = ErdosRenyiM(5, 1000, 3)
	if g.NumEdges() != 10 {
		t.Fatalf("clamped edges = %d, want 10", g.NumEdges())
	}
}

func TestBarabasiAlbert(t *testing.T) {
	g := BarabasiAlbert(500, 5, 3, 99)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 500 {
		t.Fatalf("n = %d", g.NumVertices())
	}
	// Each of the 495 non-seed vertices attaches 3 edges (some may
	// collapse as duplicates, but not many).
	if m := g.NumEdges(); m < 1300 || m > 1495+10 {
		t.Fatalf("BA edges = %d", m)
	}
	// Heavy tail: max degree should well exceed the attachment count.
	if g.MaxDegree() < 10 {
		t.Fatalf("BA max degree = %d, expected heavy tail", g.MaxDegree())
	}
	// Determinism, row by row: every vertex adds exactly mAttach edges,
	// so the edge count alone cannot tell two different graphs apart.
	g2 := BarabasiAlbert(500, 5, 3, 99)
	for v := 0; v < g.NumVertices(); v++ {
		if !slices.Equal(g.Adj(graph.V(v)), g2.Adj(graph.V(v))) {
			t.Fatalf("BA not deterministic: vertex %d has neighbours %v, then %v", v, g.Adj(graph.V(v)), g2.Adj(graph.V(v)))
		}
	}
}

func TestPlantedCommunities(t *testing.T) {
	cfg := PlantedConfig{
		N:          300,
		Background: 0.01,
		Communities: []Community{
			{Size: 20, Density: 1.0, Count: 2},
			{Size: 10, Density: 0.9},
		},
		Seed: 11,
	}
	g, plants, err := Planted(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(plants) != 3 {
		t.Fatalf("plants = %d, want 3", len(plants))
	}
	// Density-1 communities must be cliques.
	for _, p := range plants[:2] {
		for i := 0; i < len(p); i++ {
			for j := i + 1; j < len(p); j++ {
				if !g.HasEdge(p[i], p[j]) {
					t.Fatalf("planted clique missing edge %d-%d", p[i], p[j])
				}
			}
		}
	}
	// Disjointness.
	seen := map[graph.V]bool{}
	for _, p := range plants {
		for _, v := range p {
			if seen[v] {
				t.Fatalf("vertex %d in two communities", v)
			}
			seen[v] = true
		}
	}
}

func TestPlantedTooBig(t *testing.T) {
	_, _, err := Planted(PlantedConfig{N: 10, Communities: []Community{{Size: 20, Density: 1}}})
	if err == nil {
		t.Fatal("want error when communities exceed N")
	}
}

func TestRMAT(t *testing.T) {
	g := RMAT(10, 4000, 0.45, 0.2, 0.2, 77)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 1024 {
		t.Fatalf("n = %d", g.NumVertices())
	}
	if g.NumEdges() == 0 || g.NumEdges() > 4000 {
		t.Fatalf("edges = %d", g.NumEdges())
	}
}

func TestUnrank(t *testing.T) {
	n := 6
	pos := int64(0)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			gi, gj := unrank(pos, n)
			if gi != i || gj != j {
				t.Fatalf("unrank(%d) = (%d,%d), want (%d,%d)", pos, gi, gj, i, j)
			}
			pos++
		}
	}
}

func TestQuickSparseERMatchesDensity(t *testing.T) {
	f := func(seed uint64) bool {
		n := 200
		p := 0.05
		b := graph.NewBuilder(n)
		addSparseER(b, n, p, NewRNG(seed))
		g := b.MustBuild()
		want := p * float64(n*(n-1)/2)
		m := float64(g.NumEdges())
		return m > want*0.5 && m < want*1.6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestStandinsRegistry(t *testing.T) {
	names := StandinNames()
	if len(names) != 8 {
		t.Fatalf("stand-ins = %d, want 8", len(names))
	}
	if names[0] != "CX_GSE1730" || names[7] != "YouTube" {
		t.Fatalf("order = %v", names)
	}
	if _, err := StandinByName("YouTube"); err != nil {
		t.Fatal(err)
	}
	if _, err := StandinByName("nope"); err == nil {
		t.Fatal("want error for unknown dataset")
	}
}

// Building the small stand-ins must be fast and valid; the big ones are
// exercised in integration tests and benches.
func TestSmallStandinsBuild(t *testing.T) {
	for _, name := range []string{"CX_GSE1730", "CX_GSE10158", "Ca-GrQc"} {
		s, err := StandinByName(name)
		if err != nil {
			t.Fatal(err)
		}
		g := s.Build()
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if g.NumVertices() != s.PaperV {
			t.Fatalf("%s: |V| = %d, want paper-scale %d", name, g.NumVertices(), s.PaperV)
		}
		// Deterministic rebuild.
		if g2 := s.Build(); g2.NumEdges() != g.NumEdges() {
			t.Fatalf("%s not deterministic", name)
		}
	}
}
