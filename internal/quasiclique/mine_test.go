package quasiclique

import (
	"math/rand"
	"testing"

	"gthinkerqc/internal/graph"
	"gthinkerqc/internal/vset"
)

// figure4 is the paper's illustrative graph (a..i -> 0..8).
func figure4() *graph.Graph {
	const (
		a, b, c, d, e, f, gg, h, i = 0, 1, 2, 3, 4, 5, 6, 7, 8
	)
	return graph.FromEdges(9, [][2]graph.V{
		{a, b}, {a, c}, {a, d}, {a, e},
		{b, c}, {b, e},
		{c, d}, {c, e},
		{d, e},
		{d, h}, {d, i},
		{b, f}, {b, gg},
		{f, gg}, {h, i},
	})
}

func TestIsQuasiCliquePaperExample(t *testing.T) {
	g := figure4()
	// Paper: S1 = {a,b,c,d} and S2 = S1 ∪ {e} are both 0.6-quasi-
	// cliques; S1 is not maximal.
	S1 := []graph.V{0, 1, 2, 3}
	S2 := []graph.V{0, 1, 2, 3, 4}
	if !IsQuasiClique(g, S1, 0.6) {
		t.Error("S1 should be a 0.6-quasi-clique")
	}
	if !IsQuasiClique(g, S2, 0.6) {
		t.Error("S2 should be a 0.6-quasi-clique")
	}
	// {a, h} is disconnected: never a quasi-clique.
	if IsQuasiClique(g, []graph.V{0, 7}, 0.5) {
		t.Error("disconnected set accepted")
	}
	if IsQuasiClique(g, nil, 0.5) {
		t.Error("empty set accepted")
	}
}

func TestFilterMaximal(t *testing.T) {
	sets := [][]graph.V{
		{1, 2, 3},
		{1, 2, 3, 4},
		{1, 2, 3}, // duplicate
		{5, 6},
		{2, 3, 4},
	}
	got := FilterMaximal(sets)
	want := [][]graph.V{{1, 2, 3, 4}, {5, 6}}
	if !SetsEqual(got, want) {
		t.Fatalf("FilterMaximal = %v, want %v", got, want)
	}
}

func TestIsSubsetSorted(t *testing.T) {
	if !IsSubsetSorted([]graph.V{1, 3}, []graph.V{1, 2, 3}) {
		t.Error("subset not detected")
	}
	if IsSubsetSorted([]graph.V{1, 4}, []graph.V{1, 2, 3}) {
		t.Error("non-subset accepted")
	}
	if !IsSubsetSorted(nil, []graph.V{1}) {
		t.Error("empty set is subset of everything")
	}
	if IsSubsetSorted([]graph.V{1, 2}, []graph.V{1}) {
		t.Error("longer slice cannot be subset")
	}
}

func TestSubFromGraphAndInduce(t *testing.T) {
	g := figure4()
	sub := SubFromGraph(g, []graph.V{0, 1, 2, 4}) // a,b,c,e
	if sub.N() != 4 {
		t.Fatalf("N = %d", sub.N())
	}
	// a(0) is adjacent to b,c,e → locals 1,2,3.
	if !vset.Equal(sub.Adj[0], []uint32{1, 2, 3}) {
		t.Fatalf("Adj[a] = %v", sub.Adj[0])
	}
	if sub.NumEdges() != 6 { // a-b a-c a-e b-c b-e c-e
		t.Fatalf("edges = %d", sub.NumEdges())
	}
	// Induce on {a, b, c}.
	sub2 := sub.Induce([]uint32{0, 1, 2})
	if sub2.N() != 3 || sub2.NumEdges() != 3 {
		t.Fatalf("induced: n=%d m=%d", sub2.N(), sub2.NumEdges())
	}
	if sub2.Label[2] != 2 {
		t.Fatalf("labels = %v", sub2.Label)
	}
}

func TestSubPeelKCore(t *testing.T) {
	g := figure4()
	all := make([]graph.V, 9)
	for i := range all {
		all[i] = graph.V(i)
	}
	sub := SubFromGraph(g, all)
	peeled, kept := sub.PeelKCore(3)
	// Vertices f,g,h,i have degree 2 and peel away; {a,b,c,d,e} all
	// keep degree ≥ 3 among themselves.
	if peeled.N() != 5 {
		t.Fatalf("3-core size = %d (kept %v)", peeled.N(), kept)
	}
	for i, want := range []graph.V{0, 1, 2, 3, 4} {
		if peeled.Label[i] != want {
			t.Fatalf("3-core labels = %v", peeled.Label)
		}
	}
}

func TestMakeSubtaskRoundTrip(t *testing.T) {
	g := figure4()
	all := make([]graph.V, 9)
	for i := range all {
		all[i] = graph.V(i)
	}
	sub := SubFromGraph(g, all)
	S := []uint32{1, 3}      // b, d
	ext := []uint32{4, 7, 8} // e, h, i
	child, s2, e2 := MakeSubtaskScratch(sub, S, ext, new(Scratch))
	if child.N() != 5 {
		t.Fatalf("child N = %d", child.N())
	}
	if got := child.Labels(s2); got[0] != 1 || got[1] != 3 {
		t.Fatalf("child S labels = %v", got)
	}
	if got := child.Labels(e2); got[0] != 4 || got[1] != 7 || got[2] != 8 {
		t.Fatalf("child ext labels = %v", got)
	}
	// Edges must be those induced on {b,d,e,h,i}: b-e, d-e, d-h, d-i, h-i.
	if child.NumEdges() != 5 {
		t.Fatalf("child edges = %d", child.NumEdges())
	}
}

func TestMineGraphPaperExample(t *testing.T) {
	g := figure4()
	par := Params{Gamma: 0.6, MinSize: 4}
	got, stats, err := MineGraph(g, par, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := NaiveMaximal(g, par)
	if !SetsEqual(got, want) {
		t.Fatalf("MineGraph = %v, want %v", got, want)
	}
	// S2 = {a,b,c,d,e} must be among the results and S1 must not.
	foundS2 := false
	for _, s := range got {
		if vset.Equal(s, []graph.V{0, 1, 2, 3, 4}) {
			foundS2 = true
		}
		if vset.Equal(s, []graph.V{0, 1, 2, 3}) {
			t.Error("non-maximal S1 in results")
		}
	}
	if !foundS2 {
		t.Errorf("S2 missing from results %v", got)
	}
	if stats.Results != len(got) {
		t.Errorf("stats.Results = %d, want %d", stats.Results, len(got))
	}
}

func TestMineGraphInvalidParams(t *testing.T) {
	if _, _, err := MineGraph(figure4(), Params{Gamma: 0.2, MinSize: 3}, Options{}); err == nil {
		t.Fatal("want error for unsupported gamma")
	}
}

// randomGraph builds a random graph with n vertices and edge
// probability p from the given seed.
func randomGraph(seed int64, n int, p float64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				b.AddEdge(graph.V(i), graph.V(j))
			}
		}
	}
	return b.MustBuild()
}

// plantedGraph is a G(n, p) background with blocks of size b planted
// at edge density q, each over a random vertex set.
func plantedGraph(rng *rand.Rand, n int, p float64, blocks, b int, q float64) *graph.Graph {
	adj := make([][]bool, n)
	for i := range adj {
		adj[i] = make([]bool, n)
	}
	link := func(i, j int, prob float64) {
		if i != j && rng.Float64() < prob {
			adj[i][j], adj[j][i] = true, true
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			link(i, j, p)
		}
	}
	for k := 0; k < blocks; k++ {
		members := rng.Perm(n)[:b]
		for x, i := range members {
			for _, j := range members[x+1:] {
				link(i, j, q)
			}
		}
	}
	bld := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if adj[i][j] {
				bld.AddEdge(graph.V(i), graph.V(j))
			}
		}
	}
	return bld.MustBuild()
}

// TestMineMatchesNaive is the miner's differential oracle: over seeded
// random G(n, p) and planted-block graphs of at most 18 vertices, for
// every γ ∈ {0.5, …, 1.0} and τsize ∈ {2, …, 5}, the exhaustive answer,
// MineGraph, and MineGraph with the matrix cap lowered to 4 — every
// root task above four vertices split — must agree. -short runs a
// third of the seeds.
func TestMineMatchesNaive(t *testing.T) {
	seeds := int64(48)
	if testing.Short() {
		seeds /= 3
	}
	for seed := int64(0); seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var g *graph.Graph
		var n int
		var p float64
		kind := "G(n,p)"
		if seed%2 == 0 {
			n, p = 5+rng.Intn(12), 0.2+0.6*rng.Float64()
			g = randomGraph(seed, n, p)
		} else {
			kind = "planted"
			n, p = 10+rng.Intn(9), 0.1+0.2*rng.Float64()
			g = plantedGraph(rng, n, p, 1+rng.Intn(2), 5+rng.Intn(4), 0.75+0.25*rng.Float64())
		}
		for _, gamma := range []float64{0.5, 0.6, 0.7, 0.8, 0.9, 1.0} {
			// A superset of a valid set meets any size threshold the
			// set does, so the answer at τsize is the answer at 2 cut
			// to sets of at least τsize.
			all := NaiveMaximal(g, Params{Gamma: gamma, MinSize: 2})
			for tau := 2; tau <= 5; tau++ {
				par := Params{Gamma: gamma, MinSize: tau}
				var want [][]graph.V
				for _, set := range all {
					if len(set) >= tau {
						want = append(want, set)
					}
				}
				got, _, err := MineGraph(g, par, Options{})
				if err != nil {
					t.Fatal(err)
				}
				split := mineCapped(t, g, par, Options{}, 4)
				if !SetsEqual(got, want) || !SetsEqual(split, want) {
					t.Fatalf("seed=%d %s n=%d p=%.3f γ=%v τsize=%d:\n mined %v\n split %v\n want  %v",
						seed, kind, n, p, gamma, tau, got, split, want)
				}
			}
		}
	}
}

// TestMineAblationsMatch verifies that disabling any pruning rule (or
// all of them) never changes the final result set — the rules are pure
// optimizations — on tasks mined whole and on tasks split.
func TestMineAblationsMatch(t *testing.T) {
	opts := []Options{
		{DisableKCore: true},
		{DisableLookahead: true},
		{DisableCoverVertex: true},
		{DisableCriticalVertex: true},
		{DisableUpperBound: true},
		{DisableLowerBound: true},
		{DisableDegreePruning: true},
		{DisableKCore: true, DisableLookahead: true, DisableCoverVertex: true,
			DisableCriticalVertex: true, DisableUpperBound: true,
			DisableLowerBound: true, DisableDegreePruning: true},
	}
	par := Params{Gamma: 0.6, MinSize: 3}
	for seed := int64(0); seed < 25; seed++ {
		g := randomGraph(seed, 5+int(seed%7), 0.4)
		want, _, err := MineGraph(g, par, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for i, o := range opts {
			got, _, err := MineGraph(g, par, o)
			if err != nil {
				t.Fatal(err)
			}
			if !SetsEqual(got, want) {
				t.Fatalf("seed=%d opt[%d]=%+v:\n got  %v\n want %v", seed, i, o, got, want)
			}
			if got := mineCapped(t, g, par, o, 4); !SetsEqual(got, want) {
				t.Fatalf("seed=%d opt[%d]=%+v split at 4 vertices:\n got  %v\n want %v", seed, i, o, got, want)
			}
		}
	}
}

// TestQuickCompatMissesResults reproduces the paper's claim that the
// original Quick algorithm can miss results: QuickCompat output must
// always be a subset of the full output, and over a seed sweep at
// least one strict miss must occur.
func TestQuickCompatMissesResults(t *testing.T) {
	par := Params{Gamma: 0.5, MinSize: 3}
	misses := 0
	for seed := int64(0); seed < 120; seed++ {
		n := 6 + int(seed%9)
		g := randomGraph(seed, n, 0.3)
		full, _, err := MineGraph(g, par, Options{})
		if err != nil {
			t.Fatal(err)
		}
		quickRes, _, err := MineGraph(g, par, Options{QuickCompat: true})
		if err != nil {
			t.Fatal(err)
		}
		// Every Quick result must appear among the full results.
		fullSet := map[string]bool{}
		for _, s := range full {
			fullSet[setKey(s)] = true
		}
		for _, s := range quickRes {
			if !fullSet[setKey(s)] {
				// A Quick result absent from the full output can only
				// be a non-maximal set that full mining superseded;
				// it must be contained in some full result.
				contained := false
				for _, f := range full {
					if IsSubsetSorted(s, f) {
						contained = true
						break
					}
				}
				if !contained {
					t.Fatalf("seed %d: Quick found %v outside full results %v", seed, s, full)
				}
			}
		}
		if len(quickRes) < len(full) {
			misses++
		}
	}
	if misses == 0 {
		t.Fatal("expected Quick-compat mode to miss results on at least one seed")
	}
	t.Logf("Quick-compat missed results on %d/120 seeds", misses)
}

// TestDecompositionEquivalence checks the core of the paper's parallel
// design: mining with time-delayed decomposition (offloading subtrees
// as independent tasks at arbitrary timeout points) must produce the
// same final results as pure backtracking. The virtual timeout fires
// after K bounding calls, for several K, reproducing Figure 9's mixed
// granularity. With the matrix cap lowered to 4 the root tasks are
// split, so offloads also come from split children, as in the engine:
// the off-load materialises from m.Sub, the Sub the miner is bound to.
func TestDecompositionEquivalence(t *testing.T) {
	type task struct {
		sub    *Sub
		S, ext []uint32
	}
	par := Params{Gamma: 0.6, MinSize: 3}
	for seed := int64(0); seed < 20; seed++ {
		g := randomGraph(seed, 6+int(seed%8), 0.45)
		want := NaiveMaximal(g, par)
		for _, c := range []int{matrixCap, 4} {
			for _, K := range []int{0, 1, 3, 10} {
				gk, kept := PrepareGraph(g, par, Options{})
				col := NewCollector()
				var queue []task
				mineTask := func(tk task) {
					m := NewMiner(tk.sub, par, Options{})
					m.Emit = func(locals []uint32) { col.Add(m.Sub.Labels(locals)) }
					calls := 0
					m.TimedOut = func() bool { calls++; return calls > K }
					m.Offload = func(S, ext []uint32) {
						child, s2, e2 := MakeSubtaskScratch(m.Sub, S, ext, new(Scratch))
						queue = append(queue, task{child, s2, e2})
					}
					m.RecursiveMine(tk.S, tk.ext)
				}
				for _, v := range kept {
					sub, localV := BuildRootSub(gk, v, par, Options{})
					if sub == nil {
						continue
					}
					ext := make([]uint32, 0, sub.N()-1)
					for i := 1; i < sub.N(); i++ {
						ext = append(ext, uint32(i))
					}
					queue = append(queue, task{sub, []uint32{localV}, ext})
				}
				withMatrixCap(c, func() {
					for len(queue) > 0 {
						tk := queue[len(queue)-1]
						queue = queue[:len(queue)-1]
						mineTask(tk)
					}
				})
				got := FilterMaximal(col.Sets())
				if !SetsEqual(got, want) {
					t.Fatalf("seed=%d cap=%d K=%d:\n got  %v\n want %v", seed, c, K, got, want)
				}
			}
		}
	}
}

func TestCollector(t *testing.T) {
	c := NewCollector()
	c.Add([]graph.V{1, 2})
	c.Add([]graph.V{1, 2}) // dup
	c.Add([]graph.V{3})
	if len(c.Sets()) != 2 {
		t.Fatalf("Len = %d", len(c.Sets()))
	}
	c2 := NewCollector()
	c2.Add([]graph.V{3}) // dup with c
	c2.Add([]graph.V{4})
	if c.Emitted() != 3 || c2.Emitted() != 2 {
		t.Fatalf("Emitted = %d, %d, want 3, 2", c.Emitted(), c2.Emitted())
	}
	// Collectors meet in Finalize, which drops cross-collector repeats.
	if got := Finalize([][][]graph.V{c.Sets(), c2.Sets()}, true); len(got) != 3 {
		t.Fatalf("Finalize of both = %v, want 3 distinct sets", got)
	}
}

func TestOneStepExtensible(t *testing.T) {
	g := figure4()
	// S1 = {a,b,c,d} extends by e at γ=0.6.
	if !OneStepExtensible(g, []graph.V{0, 1, 2, 3}, 0.6) {
		t.Error("S1 should be extensible by e")
	}
	// The full S2 is maximal at γ=0.6 … at least not 1-extensible.
	if OneStepExtensible(g, []graph.V{0, 1, 2, 3, 4}, 0.9) {
		t.Error("S2 should not be 1-extensible at γ=0.9")
	}
}

// TestMineEmptyAndTinyGraphs exercises degenerate inputs.
func TestMineEmptyAndTinyGraphs(t *testing.T) {
	par := Params{Gamma: 0.5, MinSize: 2}
	empty := graph.FromEdges(0, nil)
	got, _, err := MineGraph(empty, par, Options{})
	if err != nil || len(got) != 0 {
		t.Fatalf("empty graph: %v, %v", got, err)
	}
	// A single edge is a 0.5-quasi-clique of size 2.
	pair := graph.FromEdges(2, [][2]graph.V{{0, 1}})
	got, _, err = MineGraph(pair, par, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := NaiveMaximal(pair, par)
	if !SetsEqual(got, want) {
		t.Fatalf("pair: got %v want %v", got, want)
	}
}

// TestMineCliques: on a complete graph the unique maximal quasi-clique
// is the whole vertex set, for any γ.
func TestMineCliques(t *testing.T) {
	for _, n := range []int{3, 5, 8} {
		var edges [][2]graph.V
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				edges = append(edges, [2]graph.V{graph.V(i), graph.V(j)})
			}
		}
		g := graph.FromEdges(n, edges)
		for _, gamma := range []float64{0.5, 0.8, 1.0} {
			par := Params{Gamma: gamma, MinSize: 2}
			got, _, err := MineGraph(g, par, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != 1 || len(got[0]) != n {
				t.Fatalf("K%d γ=%v: got %v", n, gamma, got)
			}
			// Split, every root above the cap: the look-ahead of the first
			// candidate takes the whole clique without expanding a node.
			var stats MineStats
			withMatrixCap(2, func() { got, stats, err = MineGraph(g, par, Options{}) })
			if err != nil || len(got) != 1 || len(got[0]) != n || stats.Nodes != 0 {
				t.Fatalf("K%d γ=%v split: got %v after %d nodes (err %v)", n, gamma, got, stats.Nodes, err)
			}
		}
	}
}

// TestSkipMaximalityFilter: with the filter skipped the output is a
// superset of the maximal results (mirrors the paper's released code).
func TestSkipMaximalityFilter(t *testing.T) {
	g := figure4()
	par := Params{Gamma: 0.6, MinSize: 4}
	raw, _, err := MineGraph(g, par, Options{SkipMaximalityFilter: true})
	if err != nil {
		t.Fatal(err)
	}
	filtered := FilterMaximal(raw)
	want := NaiveMaximal(g, par)
	if !SetsEqual(filtered, want) {
		t.Fatalf("raw candidates do not reduce to ground truth:\n raw %v\n want %v", raw, want)
	}
}

// setKey is the test-local canonical string key for a vertex set (the
// production dedup uses fingerprintSet with collision buckets).
func setKey(s []graph.V) string {
	buf := make([]byte, 0, len(s)*4)
	for _, v := range s {
		buf = append(buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	return string(buf)
}
