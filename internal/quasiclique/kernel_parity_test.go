package quasiclique

import (
	"math"
	"math/rand"
	"testing"

	"gthinkerqc/internal/bitset"
	"gthinkerqc/internal/graph"
)

// withMatrixCap runs fn with the miner's matrix cap lowered to c, so
// every task subgraph above c vertices takes the split path.
func withMatrixCap(c int, fn func()) {
	old := matrixCap
	matrixCap = c
	defer func() { matrixCap = old }()
	fn()
}

// mineCapped is MineGraph with the matrix cap lowered to c.
func mineCapped(t *testing.T, g *graph.Graph, par Params, opt Options, c int) [][]graph.V {
	t.Helper()
	var got [][]graph.V
	var err error
	withMatrixCap(c, func() { got, _, err = MineGraph(g, par, opt) })
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// allVertexSub is the Sub over every vertex of g, rooted at vertex 0:
// the Sub, S = {0} and ext = the rest.
func allVertexSub(g *graph.Graph) (*Sub, []uint32, []uint32) {
	all := make([]graph.V, g.NumVertices())
	for i := range all {
		all[i] = graph.V(i)
	}
	sub := SubFromGraph(g, all)
	ext := make([]uint32, 0, sub.N()-1)
	for i := 1; i < sub.N(); i++ {
		ext = append(ext, uint32(i))
	}
	return sub, []uint32{0}, ext
}

// mineDirect drives RecursiveMine on one Sub with a fresh miner and
// returns the emission stream translated through m.Sub.
func mineDirect(sub *Sub, S, ext []uint32, par Params) ([][]graph.V, *Miner) {
	m := NewPooledMiner(par, Options{})
	m.Reset(sub)
	var got [][]graph.V
	m.Emit = func(locals []uint32) { got = append(got, m.Sub.Labels(locals)) }
	m.RecursiveMine(append([]uint32(nil), S...), append([]uint32(nil), ext...))
	return got, m
}

// TestMinerParityDirect drives RecursiveMine directly (no driver) on
// one Sub mined whole and mined through the split path: every emission
// of both is a valid quasi-clique, and the maximal sets among them are
// the same.
func TestMinerParityDirect(t *testing.T) {
	par := Params{Gamma: 0.6, MinSize: 3}
	for seed := int64(0); seed < 20; seed++ {
		g := randomGraph(seed, 12, 0.4)
		sub, S, ext := allVertexSub(g)
		whole, _ := mineDirect(sub, S, ext, par)
		var split [][]graph.V
		withMatrixCap(4, func() { split, _ = mineDirect(sub, S, ext, par) })
		for _, set := range append(append([][]graph.V{}, whole...), split...) {
			if len(set) < par.MinSize || !IsQuasiClique(g, set, par.Gamma) {
				t.Fatalf("seed=%d: emitted %v is not a quasi-clique of ≥ %d vertices", seed, set, par.MinSize)
			}
		}
		if !SetsEqual(FilterMaximal(whole), FilterMaximal(split)) {
			t.Fatalf("seed=%d: whole and split runs disagree\n whole %v\n split %v",
				seed, FilterMaximal(whole), FilterMaximal(split))
		}
	}
}

// TestMatrixCapStraddle sets the matrix cap between the smallest and
// largest root subgraph, so some tasks of one run are mined on their
// matrix and others split, and checks the run against the uncapped
// one.
func TestMatrixCapStraddle(t *testing.T) {
	par := Params{Gamma: 0.7, MinSize: 3}
	straddled := 0
	for seed := int64(1); seed <= 10; seed++ {
		g := randomGraph(seed, 40, 0.2)
		gk, kept := PrepareGraph(g, par, Options{})
		minN, maxN := math.MaxInt, 0
		for _, v := range kept {
			if sub, _ := BuildRootSub(gk, v, par, Options{}); sub != nil {
				minN, maxN = min(minN, sub.N()), max(maxN, sub.N())
			}
		}
		if minN >= maxN {
			continue // all tasks the same size: nothing to straddle
		}
		straddled++
		want, _, err := MineGraph(g, par, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got := mineCapped(t, g, par, Options{}, (minN+maxN)/2); !SetsEqual(got, want) {
			t.Fatalf("seed=%d cap=%d: straddling run disagrees", seed, (minN+maxN)/2)
		}
	}
	if straddled == 0 {
		t.Fatal("no seed had root subgraphs of different sizes")
	}
}

// TestPooledMinerReuse reuses one miner across many differently-sized
// subgraphs whose sizes hop across a lowered matrix cap (exercising
// Reset's monotonic growth and the switch between mining on the matrix
// and splitting) while Par.Gamma changes between Resets (exercising the
// threshold tables' refill), and checks each task against a fresh
// miner, emission for emission and on Nodes.
func TestPooledMinerReuse(t *testing.T) {
	gammas := []float64{0.6, 0.75, 0.6, 0.9, 0.5, 2.0 / 3}
	withMatrixCap(10, func() {
		pooled := NewPooledMiner(Params{Gamma: gammas[0], MinSize: 3}, Options{})
		var got [][]graph.V
		pooled.Emit = func(locals []uint32) { got = append(got, pooled.Sub.Labels(locals)) }
		for seed := int64(0); seed < 30; seed++ {
			n := 5 + int(seed*3%13) // sizes hop around the cap
			par := Params{Gamma: gammas[seed%int64(len(gammas))], MinSize: 3}
			sub, S, ext := allVertexSub(randomGraph(seed, n, 0.45))
			got = got[:0]
			pooled.Par = par
			pooled.Reset(sub)
			pooled.RecursiveMine(S, append([]uint32(nil), ext...))
			want, fresh := mineDirect(sub, S, ext, par)
			if len(got) != len(want) {
				t.Fatalf("seed=%d n=%d: pooled emitted %d, fresh %d", seed, n, len(got), len(want))
			}
			for i := range got {
				if !setEqualV(got[i], want[i]) {
					t.Fatalf("seed=%d emission %d: pooled %v, fresh %v", seed, i, got[i], want[i])
				}
			}
			if pooled.Nodes != fresh.Nodes {
				t.Fatalf("seed=%d: pooled expanded %d nodes, fresh %d", seed, pooled.Nodes, fresh.Nodes)
			}
		}
	})
}

// TestRecursiveMineSteadyStateAllocs: once a pooled miner has mined a
// task, binding and mining it again allocates nothing — every buffer,
// the threshold tables and the degree-prefix buffers included, is kept
// across Resets. One task per matrix width: a 24-vertex planted core
// and BenchmarkRecursiveMine's 3-word task.
func TestRecursiveMineSteadyStateAllocs(t *testing.T) {
	for _, c := range []struct {
		words int
		tk    benchTask
	}{
		{1, rootBenchTask(t, "1word", plantedGraph(rand.New(rand.NewSource(42)), 40, 0.05, 1, 24, 0.85), Params{Gamma: 0.85, MinSize: 10})},
		{3, rootBenchTask(t, "3word", denseGraph(150, 0.22), Params{Gamma: 0.85, MinSize: 5})},
	} {
		tk := c.tk
		if got := bitset.WordsFor(tk.sub.N()); got != c.words {
			t.Fatalf("%s: task of %d vertices spans %d words", tk.name, tk.sub.N(), got)
		}
		m := NewPooledMiner(tk.par, Options{})
		m.Emit = func([]uint32) {}
		ext := make([]uint32, len(tk.ext))
		run := func() {
			copy(ext, tk.ext)
			m.Reset(tk.sub)
			m.RecursiveMine(tk.S, ext)
		}
		run() // warm the buffers
		if allocs := testing.AllocsPerRun(1, run); allocs != 0 {
			t.Fatalf("%s: %v allocs per Reset + RecursiveMine on a warm miner, want 0", tk.name, allocs)
		}
		if m.Nodes == 0 {
			t.Fatalf("%s: expanded no nodes", tk.name)
		}
	}
}

// TestOversizeNeverBuildsBigMatrix mines a Sub of three times a
// lowered cap: no matrix above the cap is ever built, the miner is
// bound to that Sub again afterwards, and the maximal sets match the
// Sub mined whole.
func TestOversizeNeverBuildsBigMatrix(t *testing.T) {
	const c = 8
	par := Params{Gamma: 0.6, MinSize: 3}
	for seed := int64(0); seed < 5; seed++ {
		g := randomGraph(seed, 3*c, 0.35)
		sub, S, ext := allVertexSub(g)
		want, _ := mineDirect(sub, S, ext, par)
		withMatrixCap(c, func() {
			m := NewPooledMiner(par, Options{})
			m.Reset(sub)
			var got [][]graph.V
			m.Emit = func(locals []uint32) {
				if m.mat.N() > c {
					t.Fatalf("seed=%d: %d-row matrix built under a cap of %d", seed, m.mat.N(), c)
				}
				got = append(got, m.Sub.Labels(locals))
			}
			m.RecursiveMine(append([]uint32(nil), S...), append([]uint32(nil), ext...))
			if m.mat.N() > c {
				t.Fatalf("seed=%d: %d-row matrix after mining under a cap of %d", seed, m.mat.N(), c)
			}
			if m.Sub != sub {
				t.Fatalf("seed=%d: miner left bound to a %d-vertex child", seed, m.Sub.N())
			}
			if !SetsEqual(FilterMaximal(got), FilterMaximal(want)) {
				t.Fatalf("seed=%d: split run disagrees with the whole-matrix run", seed)
			}
		})
	}
}

func setEqualV(a, b []graph.V) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestTwoHopCacheAcrossReuse reuses one pooled miner across tasks so
// the epoch-stamped two-hop RowCache must correctly invalidate: a row
// built for one subgraph must never leak into the next. Each task is
// checked against a fresh miner, emission for emission.
func TestTwoHopCacheAcrossReuse(t *testing.T) {
	par := Params{Gamma: 0.6, MinSize: 3}
	m := NewPooledMiner(par, Options{})
	var got [][]graph.V
	m.Emit = func(locals []uint32) { got = append(got, m.Sub.Labels(locals)) }
	for seed := int64(0); seed < 25; seed++ {
		sub, S, ext := allVertexSub(randomGraph(seed*31+5, 8+int(seed%9), 0.5))
		m.Reset(sub)
		got = got[:0]
		m.RecursiveMine(S, append([]uint32(nil), ext...))
		want, _ := mineDirect(sub, S, ext, par)
		if len(got) != len(want) {
			t.Fatalf("seed=%d: pooled miner emitted %d, fresh %d", seed, len(got), len(want))
		}
		for i := range got {
			if !setEqualV(got[i], want[i]) {
				t.Fatalf("seed=%d emission %d: %v vs %v", seed, i, got[i], want[i])
			}
		}
	}
}

// TestRecursiveMineRefusesEmptyS: every search-tree node holds a
// vertex, so RecursiveMine answers false to an empty S without mining,
// on a fresh miner bound to a 0-vertex Sub and on a non-empty Sub alike.
func TestRecursiveMineRefusesEmptyS(t *testing.T) {
	m := NewPooledMiner(Params{Gamma: 0.8, MinSize: 2}, Options{})
	m.Emit = func(locals []uint32) { t.Fatalf("emitted %v", locals) }
	m.Reset(&Sub{})
	if m.RecursiveMine(nil, nil) {
		t.Fatal("empty S and ext on a 0-vertex Sub: found something")
	}
	sub, _, ext := allVertexSub(randomGraph(1, 10, 0.6))
	m.Reset(sub)
	if m.RecursiveMine(nil, ext) || m.Nodes != 0 {
		t.Fatalf("empty S on a %d-vertex Sub: mined %d nodes", sub.N(), m.Nodes)
	}
}

// TestWordWidthParity mines one ⟨S, ext⟩ twice: on its own Sub of at
// most 64 vertices, where every row is one word, and embedded in a
// 150-vertex Sub (three words) with its labels shifted so the task
// straddles the first word boundary, the added vertices isolated.
// Nodes, EmitCount and the emission sequence must be identical. No
// benchmark task is wider than one word, so this is what holds the
// multi-word loops to the one-word path.
func TestWordWidthParity(t *testing.T) {
	const wide = 150
	rng := rand.New(rand.NewSource(46))
	var nodes, emitted int64
	for seed := int64(0); seed < 16; seed++ {
		n := 10 + rng.Intn(13)
		var g *graph.Graph
		if seed%2 == 0 {
			g = randomGraph(seed, n, 0.3+0.4*rng.Float64())
		} else {
			g = plantedGraph(rng, n, 0.2, 1, n*2/3, 0.9)
		}
		small, _, _ := allVertexSub(g)
		off := uint32(64 - n/2)
		big := &Sub{Label: make([]graph.V, wide), Adj: make([][]uint32, wide)}
		for i := range big.Label {
			big.Label[i] = graph.V(1000 + i)
		}
		for v := 0; v < n; v++ {
			big.Label[off+uint32(v)] = small.Label[v]
			for _, u := range small.Adj[v] {
				big.Adj[off+uint32(v)] = append(big.Adj[off+uint32(v)], u+off)
			}
		}
		perm := rng.Perm(n)
		S, ext := []uint32{uint32(perm[0])}, make([]uint32, n-1)
		for i, v := range perm[1:] {
			ext[i] = uint32(v)
		}
		shift := func(xs []uint32) []uint32 {
			out := make([]uint32, len(xs))
			for i, x := range xs {
				out[i] = x + off
			}
			return out
		}
		for _, gamma := range []float64{0.5, 0.6, 0.75, 0.9, 1.0} {
			for tau := 2; tau <= 5; tau++ {
				par := Params{Gamma: gamma, MinSize: tau}
				want, one := mineDirect(small, S, ext, par)
				got, multi := mineDirect(big, shift(S), shift(ext), par)
				if one.Nodes != multi.Nodes || one.EmitCount != multi.EmitCount {
					t.Fatalf("seed=%d n=%d γ=%v τ=%d: one word %d nodes / %d emitted, three words %d / %d",
						seed, n, gamma, tau, one.Nodes, one.EmitCount, multi.Nodes, multi.EmitCount)
				}
				if len(got) != len(want) {
					t.Fatalf("seed=%d γ=%v τ=%d: %d emissions on one word, %d on three", seed, gamma, tau, len(want), len(got))
				}
				for i := range got {
					if !setEqualV(got[i], want[i]) {
						t.Fatalf("seed=%d γ=%v τ=%d emission %d: one word %v, three words %v", seed, gamma, tau, i, want[i], got[i])
					}
				}
				nodes, emitted = nodes+one.Nodes, emitted+one.EmitCount
			}
		}
	}
	t.Logf("%d nodes and %d emissions agree", nodes, emitted)
}
