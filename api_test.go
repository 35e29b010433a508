package gthinkerqc

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gthinkerqc/internal/quasiclique"
)

func TestPublicAPISerialVsParallel(t *testing.T) {
	g, planted, err := GeneratePlanted(600, 0.01, []CommunitySpec{
		{Size: 12, Density: 0.95, Count: 3},
	}, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(planted) != 3 {
		t.Fatalf("planted = %d", len(planted))
	}
	cfg := Config{Gamma: 0.8, MinSize: 9}
	s, err := MineSerial(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Machines = 2
	cfg.WorkersPerMachine = 2
	cfg.TauTime = time.Millisecond
	p, err := MineParallel(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !quasiclique.SetsEqual(s.Cliques, p.Cliques) {
		t.Fatalf("serial %d vs parallel %d results", len(s.Cliques), len(p.Cliques))
	}
	if len(s.Cliques) == 0 {
		t.Fatal("no results on planted graph")
	}
	for _, qc := range s.Cliques {
		if !IsQuasiClique(g, qc, cfg.Gamma) {
			t.Fatalf("invalid result %v", qc)
		}
	}
	if p.Engine == nil || p.Tasks == nil {
		t.Fatal("parallel result missing metrics")
	}
	if s.SerialStats.Nodes == 0 {
		t.Fatal("serial stats missing")
	}
}

func TestPublicAPIValidation(t *testing.T) {
	g := GenerateER(10, 0.5, 1)
	if _, err := MineSerial(g, Config{Gamma: 0.3, MinSize: 3}); err == nil {
		t.Fatal("gamma 0.3 accepted")
	}
	if _, err := MineParallel(g, Config{Gamma: 0.9, MinSize: 1}); err == nil {
		t.Fatal("minsize 1 accepted")
	}
}

func TestPublicAPILoaders(t *testing.T) {
	dir := t.TempDir()
	// Edge list loader.
	txt := filepath.Join(dir, "g.txt")
	if err := os.WriteFile(txt, []byte("# comment\n0 1\n1 2\n2 0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	g, err := LoadEdgeListFile(txt)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 3 || g.NumEdges() != 3 {
		t.Fatalf("loaded %d/%d", g.NumVertices(), g.NumEdges())
	}
	g2, err := LoadEdgeList(strings.NewReader("5 6\n6 7\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != 2 {
		t.Fatal("reader loader broken")
	}
	// Binary round trip.
	bin := filepath.Join(dir, "g.bin")
	if err := SaveBinaryFile(bin, g); err != nil {
		t.Fatal(err)
	}
	m3, err := MapBinaryFile(bin)
	if err != nil {
		t.Fatal(err)
	}
	defer m3.Close()
	if g3 := m3.Graph(); g3.NumEdges() != g.NumEdges() {
		t.Fatal("binary round trip broken")
	}
}

func TestPublicAPIGenerators(t *testing.T) {
	if g := GenerateER(100, 0.1, 3); g.NumVertices() != 100 {
		t.Fatal("ER")
	}
	if g := GenerateBA(200, 3, 3); g.NumVertices() != 200 || g.MaxDegree() < 5 {
		t.Fatal("BA")
	}
	if g := FromEdges(3, [][2]V{{0, 1}}); g.NumEdges() != 1 {
		t.Fatal("FromEdges")
	}
	b := NewGraphBuilder(0)
	b.AddEdge(0, 5)
	if b.MustBuild().NumVertices() != 6 {
		t.Fatal("builder")
	}
}

func TestPublicAPIDatasets(t *testing.T) {
	ds := Datasets()
	if len(ds) != 8 || ds[7].Name != "YouTube" {
		t.Fatalf("datasets = %v", ds)
	}
	g, meta, err := BuildDataset("Ca-GrQc")
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 5242 || meta.Gamma != 0.8 {
		t.Fatalf("Ca-GrQc: %d vertices γ=%v", g.NumVertices(), meta.Gamma)
	}
	if _, _, err := BuildDataset("bogus"); err == nil {
		t.Fatal("bogus dataset accepted")
	}
}

func TestKeepNonMaximalFacade(t *testing.T) {
	g, _, err := GeneratePlanted(300, 0.01, []CommunitySpec{{Size: 10, Density: 1, Count: 2}}, 9)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := MineSerial(g, Config{Gamma: 0.8, MinSize: 5, KeepNonMaximal: true})
	if err != nil {
		t.Fatal(err)
	}
	filtered, err := MineSerial(g, Config{Gamma: 0.8, MinSize: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(raw.Cliques) < len(filtered.Cliques) {
		t.Fatalf("raw %d < filtered %d", len(raw.Cliques), len(filtered.Cliques))
	}
	if got := FilterMaximal(raw.Cliques); !quasiclique.SetsEqual(got, filtered.Cliques) {
		t.Fatal("FilterMaximal(raw) != filtered output")
	}
}
