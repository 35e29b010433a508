package quasiclique

import (
	"path/filepath"
	"slices"
	"testing"

	"gthinkerqc/internal/graph"
	"gthinkerqc/internal/store"
)

// TestScratchVariantsMatch checks that the scratch-threaded hot paths
// produce exactly what the allocating convenience wrappers produce,
// including when one Scratch is reused across many calls.
func TestScratchVariantsMatch(t *testing.T) {
	g := benchGraph(500, 6)
	var sc Scratch
	var dst []graph.V
	for v := 0; v < 200; v++ {
		want := g.Within2(graph.V(v), nil)
		dst = g.Within2Scratch(graph.V(v), dst[:0], &sc.marks)
		if !slices.Equal(want, dst) {
			t.Fatalf("Within2Scratch(%d) = %v, want %v", v, dst, want)
		}
		if len(want) == 0 {
			continue
		}
		verts := append([]graph.V{}, want...)
		a := SubFromGraph(g, verts)
		b := subFromGraph(g, verts, &sc, true)
		if !slices.Equal(a.Label, b.Label) || a.N() != b.N() {
			t.Fatalf("labels differ at %d", v)
		}
		for i := range a.Adj {
			if !slices.Equal(a.Adj[i], b.Adj[i]) {
				t.Fatalf("row %d differs at root %d", i, v)
			}
		}
	}
}

// TestBuildRootSubScratchMatches cross-checks the per-worker root-task
// construction against the standalone path over every vertex.
func TestBuildRootSubScratchMatches(t *testing.T) {
	g := benchGraph(400, 5)
	par := Params{Gamma: 0.8, MinSize: 4}
	var sc Scratch
	for v := 0; v < g.NumVertices(); v++ {
		a, la := BuildRootSub(g, graph.V(v), par, Options{})
		b, lb := BuildRootSubScratch(g, graph.V(v), par, Options{}, &sc)
		if (a == nil) != (b == nil) || la != lb {
			t.Fatalf("prune disagreement at %d: %v vs %v", v, a, b)
		}
		if a == nil {
			continue
		}
		if !slices.Equal(a.Label, b.Label) {
			t.Fatalf("labels differ at %d", v)
		}
		for i := range a.Adj {
			if !slices.Equal(a.Adj[i], b.Adj[i]) {
				t.Fatalf("row %d differs at %d", i, v)
			}
		}
	}
}

// TestSubRawRoundtripOwned covers the packed spill codec for a
// task-local subgraph built over caller-owned labels, including empty
// rows.
func TestSubRawRoundtripOwned(t *testing.T) {
	g := benchGraph(300, 4)
	verts := g.Within2(37, nil)
	var scOwned Scratch
	sub := subFromGraph(g, verts, &scOwned, false) // owned: no label copy
	if &sub.Label[0] != &verts[0] {
		t.Fatal("owned subFromGraph copied verts")
	}
	var back Sub
	if err := back.DecodeRaw(store.NewCursor(sub.AppendRaw(nil))); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(sub.Label, back.Label) {
		t.Fatalf("labels differ: %v vs %v", sub.Label, back.Label)
	}
	if err := rowsMatchAdj(back.Rows, sub.Adj); err != nil {
		t.Fatal(err)
	}
}

// TestMineDecodedGraphIdentical is the codec cross-check: a graph that
// went through encode→decode must mine the exact same maximal
// quasi-clique set as the in-memory original.
func TestMineDecodedGraphIdentical(t *testing.T) {
	g := benchGraph(600, 7)
	path := filepath.Join(t.TempDir(), "g.bin")
	if err := graph.WriteBinaryFile(path, g); err != nil {
		t.Fatal(err)
	}
	mg, err := store.MapGraph(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mg.Close()
	g2 := mg.Graph()
	par := Params{Gamma: 0.6, MinSize: 4}
	want, _, err := MineGraph(g, par, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := MineGraph(g2, par, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("degenerate test: no results")
	}
	if !SetsEqual(want, got) {
		t.Fatalf("decoded graph mined %d sets, original %d", len(got), len(want))
	}
}
