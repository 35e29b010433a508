package quasiclique

import (
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"gthinkerqc/internal/datagen"
	"gthinkerqc/internal/graph"
	"gthinkerqc/internal/store"
)

// TestScratchVariantsMatch checks that the scratch-threaded hot paths
// produce exactly what the allocating convenience wrappers produce,
// including when one Scratch is reused across many calls: Induce over
// graph rows against SubFromGraph, and BuildRootSubScratch against
// BuildRootSub.
func TestScratchVariantsMatch(t *testing.T) {
	g := benchGraph(500, 6)
	par := Params{Gamma: 0.8, MinSize: 4}
	var sc Scratch
	built := 0
	for v := 0; v < 200; v++ {
		verts := g.Within2(graph.V(v), nil)
		if len(verts) > 0 {
			_, adj := Induce(verts, g.NumVertices(), func(i int) []uint32 { return g.Adj(verts[i]) }, 0, 0, &sc)
			if err := diffSub(&Sub{Label: verts, Adj: adj}, SubFromGraph(g, verts)); err != nil {
				t.Fatalf("induce at %d: %v", v, err)
			}
		}
		a, la := BuildRootSub(g, graph.V(v), par, Options{})
		b, lb := BuildRootSubScratch(g, graph.V(v), par, Options{}, &sc)
		if (a == nil) != (b == nil) || la != lb {
			t.Fatalf("prune disagreement at %d: %v vs %v", v, a, b)
		}
		if a == nil {
			continue
		}
		built++
		if err := diffSub(b, a); err != nil {
			t.Fatalf("root %d: %v", v, err)
		}
	}
	if built == 0 {
		t.Fatal("no root task built: nothing compared")
	}
}

// degreeGraph is g with every edge that has an end of degree below k
// removed: the graph whose live vertices are the degree gate's, as
// PrepareGraph's k-core is the core gate's.
func degreeGraph(g *graph.Graph, k int) *graph.Graph {
	b := graph.NewBuilder(g.NumVertices())
	for v := graph.V(0); int(v) < g.NumVertices(); v++ {
		for _, u := range g.Adj(v) {
			if u > v && g.Degree(v) >= k && g.Degree(u) >= k {
				b.AddEdge(v, u)
			}
		}
	}
	return b.MustBuild()
}

// TestSerialRootsMatchPeeledTwoHop holds the serial driver's root
// construction (rootMembers, then RootSub on G's own rows) to the
// construction it replaced: over the graph of live vertices (G's
// k-core from PrepareGraph, or under DisableKCore G without its
// vertices of degree below k), v's larger two-hop set plus v, induced
// by SubFromGraph and peeled by PeelKCoreScratch. Over planted and
// RMAT graphs, γ 0.5…1.0 and τsize 2…8, a root is refused exactly
// when that peel drops v, and a kept root has its labels and
// adjacency, with S = {0} and ext the rest; with the matrix cap
// lowered to 4 the roots take RootSub's list fallback and agree too.
// BuildRootSub, over PrepareGraph's output, is the same root as a list
// Sub whenever it reaches τsize.
func TestSerialRootsMatchPeeledTwoHop(t *testing.T) {
	var graphs []*graph.Graph
	for seed := uint64(1); seed <= 2; seed++ {
		planted, _, err := datagen.Planted(datagen.PlantedConfig{
			N:          160,
			Background: 0.03,
			Communities: []datagen.Community{
				{Size: 9, Density: 0.9, Count: 2},
				{Size: 6, Density: 1.0, Count: 2},
			},
			Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, planted, datagen.RMAT(8, 900, 0.57, 0.19, 0.19, seed))
	}
	var sc, ref Scratch
	kinds := map[string]int{}
	for gi, g := range graphs {
		n := g.NumVertices()
		for _, gamma := range []float64{0.5, 0.6, 0.7, 0.8, 0.9, 1.0} {
			for tau := 2; tau <= 8; tau++ {
				par := Params{Gamma: gamma, MinSize: tau}
				k := par.K()
				for _, opt := range []Options{{}, {DisableKCore: true}} {
					gk, _ := PrepareGraph(g, par, opt)
					live := gk
					if opt.DisableKCore {
						live = degreeGraph(g, k)
					}
					gt := NewGate(g, par, opt)
					for v := graph.V(0); int(v) < n; v++ {
						cand := live.Within2(v, nil)
						i, _ := slices.BinarySearch(cand, v)
						want, _ := SubFromGraph(live, append([]graph.V{v}, cand[i:]...)).PeelKCoreScratch(k, &ref)
						if want.N() == 0 || want.Label[0] != v {
							want = nil
						}
						probe, _ := BuildRootSub(gk, v, par, opt)
						if want == nil || want.N() < tau {
							if probe != nil {
								t.Fatalf("graph %d γ=%v τsize=%d no-k-core=%t root %d: BuildRootSub keeps a root the reference drops", gi, gamma, tau, opt.DisableKCore, v)
							}
						} else if err := diffSub(probe, want); err != nil {
							t.Fatalf("graph %d γ=%v τsize=%d no-k-core=%t root %d: BuildRootSub: %v", gi, gamma, tau, opt.DisableKCore, v, err)
						}
						for _, c := range []int{matrixCap, 4} {
							where := func() string {
								return fmt.Sprintf("graph %d γ=%v τsize=%d no-k-core=%t cap %d root %d", gi, gamma, tau, opt.DisableKCore, c, v)
							}
							var sub *Sub
							var S, ext []uint32
							members := gt.rootMembers(v, &sc)
							if members != nil {
								row := func(i int) []uint32 { return g.Adj(members[i]) }
								withMatrixCap(c, func() { sub, S, ext = RootSub(members, n, row, k, &sc) })
							}
							if (sub == nil) != (want == nil) {
								t.Fatalf("%s: serial root kept %t, reference %t", where(), sub != nil, want != nil)
							}
							switch {
							case members == nil:
								kinds["gated"]++
								continue
							case sub == nil:
								kinds["peeled"]++
								continue
							}
							if !slices.Equal(S, []uint32{0}) || len(ext) != sub.N()-1 {
								t.Fatalf("%s: S %v, %d ext for %d vertices", where(), S, len(ext), sub.N())
							}
							for i, x := range ext {
								if x != uint32(i+1) {
									t.Fatalf("%s: ext %v", where(), ext)
								}
							}
							if !slices.Equal(sub.Label, want.Label) {
								t.Fatalf("%s: labels %v, want %v", where(), sub.Label, want.Label)
							}
							var err error
							if len(members) <= c {
								err = rowsMatchAdj(sub.Rows, want.Adj)
								kinds["rows"]++
							} else {
								err = diffSub(sub, want)
								kinds["list"]++
							}
							if err != nil {
								t.Fatalf("%s: %v", where(), err)
							}
						}
					}
				}
			}
		}
	}
	for _, kind := range []string{"gated", "peeled", "rows", "list"} {
		if kinds[kind] == 0 {
			t.Errorf("no root was %s: %v", kind, kinds)
		}
	}
	t.Logf("roots by outcome: %v", kinds)
}

// TestEmptySerialJobAllocatesNothingPerVertex: a job whose k exceeds
// every core number admits no root, so once the graph's core numbers
// are warm the serial driver must not allocate in proportion to |V|:
// no per-job graph, marker or index array.
func TestEmptySerialJobAllocatesNothingPerVertex(t *testing.T) {
	g := datagen.RMAT(17, 8<<17, 0.57, 0.19, 0.19, 1)
	maxCore := slices.Max(g.CoreNumbers())
	par := Params{Gamma: 1, MinSize: int(maxCore) + 2} // k = maxCore + 1
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, stats, err := MineGraph(g, par, Options{})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 || stats.Roots != 0 {
		t.Fatalf("k = %d above every core number, yet %d results from %d roots", par.K(), len(res), stats.Roots)
	}
	b := after.TotalAlloc - before.TotalAlloc
	if b >= uint64(g.NumVertices()) {
		t.Fatalf("an empty job on %d vertices allocated %d bytes", g.NumVertices(), b)
	}
	t.Logf("an empty job on %d vertices allocated %d bytes", g.NumVertices(), b)
}

// TestSubRawRoundtripOwned covers the packed spill codec for a list
// Sub that owns its labels, including empty rows.
func TestSubRawRoundtripOwned(t *testing.T) {
	g := benchGraph(300, 4)
	sub := SubFromGraph(g, g.Within2(37, nil))
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
