package datagen

import (
	"testing"

	"gthinkerqc/internal/graph"
	"gthinkerqc/internal/quasiclique"
)

// TestAllStandinsBuildValid builds every stand-in (including the large
// ones) and checks structural validity plus determinism of the edge
// count. ~1s total.
func TestAllStandinsBuildValid(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, s := range Standins() {
		g := s.Build()
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if g.NumVertices() == 0 || g.NumEdges() == 0 {
			t.Fatalf("%s: empty graph", s.Name)
		}
		// Table-2 parameters must leave a non-empty k-core (otherwise
		// the benchmark mines nothing).
		k := quasiclique.CeilMul(s.Gamma, s.MinSize-1)
		if size, _ := coreStats(g, k); size == 0 {
			t.Fatalf("%s: k-core (k=%d) empty — parameters mine nothing", s.Name, k)
		}
	}
}

// coreStats returns the size of g's k-core and g's largest core number.
func coreStats(g *graph.Graph, k int) (size, maxCore int) {
	for _, c := range g.CoreNumbers() {
		if int(c) >= k {
			size++
		}
		maxCore = max(maxCore, int(c))
	}
	return size, maxCore
}

// TestStandinDifficultyOrdering: the YouTube stand-in must carry the
// largest search workload (it is the paper's hardest instance); proxy:
// its k-core at mining parameters is at least as large as Hyves'.
func TestStandinDifficultyOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	yt, err := StandinByName("YouTube")
	if err != nil {
		t.Fatal(err)
	}
	g := yt.Build()
	k := quasiclique.CeilMul(yt.Gamma, yt.MinSize-1)
	size, maxCore := coreStats(g, k)
	if size < 30 {
		t.Fatalf("YouTube hard core too small: %d", size)
	}
	// The planted hard core must be just below the γ threshold: its
	// densest region survives the k-core but is not a clique.
	if maxCore < k {
		t.Fatalf("degeneracy %d below k=%d", maxCore, k)
	}
}

func TestOverlayMismatch(t *testing.T) {
	base := ErdosRenyi(10, 0.2, 1)
	_, _, err := overlay(base, PlantedConfig{N: 11, Communities: []Community{{Size: 3, Density: 1}}})
	if err == nil {
		t.Fatal("size mismatch accepted")
	}
}

func TestOverlayMergesEdges(t *testing.T) {
	base := graph.FromEdges(4, [][2]graph.V{{0, 1}})
	merged, plants, err := overlay(base, PlantedConfig{
		N: 4, Communities: []Community{{Size: 3, Density: 1}}, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(plants) != 1 {
		t.Fatalf("plants = %v", plants)
	}
	// The planted triangle contributes 3 edges; {0,1} may coincide.
	if merged.NumEdges() < 3 {
		t.Fatalf("merged edges = %d", merged.NumEdges())
	}
	if err := merged.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSortVerts(t *testing.T) {
	vs := []graph.V{5, 1, 3}
	SortVerts(vs)
	if vs[0] != 1 || vs[2] != 5 {
		t.Fatalf("sorted = %v", vs)
	}
}

func TestLogFloor(t *testing.T) {
	// floor(log(0.24)/log(0.5)) = 2; floor(log(0.3)/log(0.5)) = 1.
	// (Exact powers of the base are measure-zero boundary cases where
	// the skip may differ by one, which does not affect the geometric
	// distribution.)
	if got := logFloor(0.24, 0.5); got != 2 {
		t.Fatalf("logFloor(0.24, 0.5) = %v", got)
	}
	if got := logFloor(0.3, 0.5); got != 1 {
		t.Fatalf("logFloor(0.3, 0.5) = %v", got)
	}
	// u=1 → 0 skips.
	if got := logFloor(1.0, 0.5); got != 0 {
		t.Fatalf("logFloor(1, 0.5) = %v", got)
	}
}

func TestAddSparseERFullDensity(t *testing.T) {
	b := graph.NewBuilder(6)
	addSparseER(b, 6, 1.0, NewRNG(1))
	if g := b.MustBuild(); g.NumEdges() != 15 {
		t.Fatalf("p=1 edges = %d", g.NumEdges())
	}
	b2 := graph.NewBuilder(6)
	addSparseER(b2, 6, 0, NewRNG(1))
	if g := b2.MustBuild(); g.NumEdges() != 0 {
		t.Fatalf("p=0 edges = %d", g.NumEdges())
	}
}

func TestBarabasiAlbertDegenerateParams(t *testing.T) {
	// m0 < 1 is clamped; attach > m0 is clamped.
	g := BarabasiAlbert(20, 0, 5, 3)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 20 {
		t.Fatalf("n = %d", g.NumVertices())
	}
}
