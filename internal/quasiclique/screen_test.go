package quasiclique

import (
	"math/rand"
	"slices"
	"testing"

	"gthinkerqc/internal/bitset"
	"gthinkerqc/internal/graph"
)

// TestEmissionScreenExact holds the emission screen to its definition:
// on random Subs of 2–64 vertices (one-word rows, the register path)
// and of 65–200 (row slices), at every γ ∈ {0.5, 0.6, …, 1.0},
// extendable(T) must answer whether some vertex u ∉ T of the Sub makes
// isQC(T ∪ {u}) true. T is a random set or one grown greedily dense, so
// that its members sit near the degree thresholds. On both paths each
// of the screen's three outcomes must occur: extendable, a member below
// need−1, and a vertex with enough neighbours in T that misses a
// critical member — else a screen without one of its tests passes.
func TestEmissionScreenExact(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	m := NewPooledMiner(Params{MinSize: 1}, Options{})
	var yes, short, blocked [2]int
	for trial := 0; trial < 600; trial++ {
		wide := trial % 2
		n := [2]int{2 + rng.Intn(63), 65 + rng.Intn(136)}[wide]
		sub, _, _ := allVertexSub(randomGraph(int64(trial), n, 0.3+0.69*rng.Float64()))
		T := randomDenseSet(rng, sub, 1+rng.Intn(min(n-1, 12)), trial%4 != 0)
		for _, gamma := range []float64{0.5, 0.6, 0.7, 0.8, 0.9, 1.0} {
			m.Par.Gamma = gamma
			m.Reset(sub)
			need := CeilMul(gamma, len(T))
			want, below, critMiss := false, false, false
			for _, v := range T {
				below = below || m.degreeIn(v, T) < need-1
			}
			for u := 0; u < n && !want; u++ {
				if _, in := slices.BinarySearch(T, uint32(u)); in {
					continue
				}
				want = m.isQC(insertSortedInto(nil, T, uint32(u)))
				critMiss = critMiss || !want && !below && m.degreeIn(uint32(u), T) >= need
			}
			if got := m.extendable(T); got != want {
				t.Fatalf("trial %d (n=%d γ=%v T=%v): extendable %v, brute force %v", trial, n, gamma, T, got, want)
			}
			switch {
			case want:
				yes[wide]++
			case below:
				short[wide]++
			case critMiss:
				blocked[wide]++
			}
		}
	}
	for w, name := range []string{"one-word", "row-slice"} {
		if yes[w] == 0 || short[w] == 0 || blocked[w] == 0 {
			t.Fatalf("%s path: %d extendable, %d with a member below need−1, %d blocked by a critical member; the trials miss an outcome",
				name, yes[w], short[w], blocked[w])
		}
	}
	t.Logf("extendable / member short / critical blocks: one word %d/%d/%d, row slices %d/%d/%d",
		yes[0], short[0], blocked[0], yes[1], short[1], blocked[1])
}

// randomDenseSet returns a sorted set of k vertices of sub: uniformly
// random, or, when dense is set, grown from a random vertex by adding
// one of the three outside vertices with the most neighbours in it.
func randomDenseSet(rng *rand.Rand, sub *Sub, k int, dense bool) []uint32 {
	n := sub.N()
	if !dense {
		T := make([]uint32, k)
		for i, v := range rng.Perm(n)[:k] {
			T[i] = uint32(v)
		}
		slices.Sort(T)
		return T
	}
	T := []uint32{uint32(rng.Intn(n))}
	for len(T) < k {
		deg := make([]int, n)
		for _, v := range T {
			for _, u := range sub.Adj[v] {
				deg[u]++
			}
		}
		var out []uint32
		for u := 0; u < n; u++ {
			if _, in := slices.BinarySearch(T, uint32(u)); !in {
				out = append(out, uint32(u))
			}
		}
		slices.SortFunc(out, func(a, b uint32) int { return deg[b] - deg[a] })
		T = insertSortedInto(nil, T, out[rng.Intn(min(3, len(out)))])
	}
	return T
}

// degreeIn counts v's neighbours in the set T on the bound matrix.
func (m *Miner) degreeIn(v uint32, T []uint32) int {
	d := 0
	for _, u := range T {
		if bitset.TestBit(m.mat.Row(int(v)), int(u)) {
			d++
		}
	}
	return d
}

// TestWitnessRowsMineLikeK mines every subtask a decomposed search
// offloads twice: as Subtask makes it, with witness rows, and as the
// child of K = S ∪ ext alone (MakeSubtaskScratch). Witness rows never
// appear in S′ or ext′ and do not widen the child's stride; the two
// children expand the same search tree; the witness child emits a
// subset of what the K child emits, and each set it leaves out is
// extended by one of its witnesses in G. When every qualifying witness
// fitted, it emits each K-child set that no vertex of G extends, so
// both children give the same maximal quasi-cliques of G.
func TestWitnessRowsMineLikeK(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	var children, screened, fitted int
	for seed := int64(0); seed < 16; seed++ {
		n := [2]int{20 + rng.Intn(44), 65 + rng.Intn(60)}[seed%2]
		g := plantedGraph(rng, n, 0.15, 3, 12+rng.Intn(8), 0.9)
		par := Params{Gamma: 0.6 + 0.1*float64(rng.Intn(4)), MinSize: 4 + rng.Intn(3)}
		parent, S, ext := allVertexSub(g)
		type offload struct {
			child, kChild *Sub
			s, e, kS, kE  []uint32
			fitted        bool
		}
		var offs []offload
		m := NewPooledMiner(par, Options{})
		m.Reset(parent)
		m.Emit = func([]uint32) {}
		calls := 0
		m.TimedOut = func() bool { calls++; return calls%3 == 0 }
		m.Offload = func(S, ext []uint32) {
			if len(offs) == 80 {
				return
			}
			var o offload
			o.child, o.s, o.e = m.Subtask(S, ext)
			o.kChild, o.kS, o.kE = MakeSubtaskScratch(parent, S, ext, &Scratch{})
			qualify, room := witnessReference(parent, S, ext, par)
			o.fitted = len(qualify) == room
			offs = append(offs, o)
		}
		m.RecursiveMine(S, ext)

		for i, o := range offs {
			nk := len(o.s) + len(o.e)
			if !slices.Equal(o.child.Labels(append(slices.Clone(o.s), o.e...)), o.kChild.Labels(append(slices.Clone(o.kS), o.kE...))) {
				t.Fatalf("seed %d offload %d: S′ ∪ ext′ names other vertices than K", seed, i)
			}
			if len(o.child.Rows) != o.child.N()*bitset.WordsFor(nk) {
				t.Fatalf("seed %d offload %d: %d row words for %d vertices, want stride %d",
					seed, i, len(o.child.Rows), o.child.N(), bitset.WordsFor(nk))
			}
			got, wm := mineDirect(o.child, o.s, o.e, par)
			want, km := mineDirect(o.kChild, o.kS, o.kE, par)
			if wm.Nodes != km.Nodes {
				t.Fatalf("seed %d offload %d: %d nodes with witness rows, %d without", seed, i, wm.Nodes, km.Nodes)
			}
			emitted := map[string]bool{}
			for _, T := range got {
				emitted[setKey(T)] = true
			}
			inWant := map[string]bool{}
			for _, T := range want {
				inWant[setKey(T)] = true
				if emitted[setKey(T)] {
					if o.fitted && OneStepExtensible(g, T, par.Gamma) {
						t.Fatalf("seed %d offload %d: emitted %v, which a vertex of G extends", seed, i, T)
					}
					continue
				}
				screened++
				if !extendedByWitness(g, o.child, o.kChild.Label, T, par.Gamma) {
					t.Fatalf("seed %d offload %d: dropped %v, which no witness extends", seed, i, T)
				}
			}
			for _, T := range got {
				if !inWant[setKey(T)] {
					t.Fatalf("seed %d offload %d: emitted %v, which the K child does not", seed, i, T)
				}
			}
			children++
			if o.fitted {
				fitted++
			}
		}
	}
	if screened == 0 || fitted == 0 || fitted == children {
		t.Fatalf("%d subtasks (%d with every witness kept), %d sets screened by a witness: the trials prove too little",
			children, fitted, screened)
	}
	t.Logf("%d subtasks (%d with every witness kept) mined; witness rows screened %d sets", children, fitted, screened)
}

// extendedByWitness reports whether a label of child outside the
// sorted labels of K makes T ∪ {w} a γ-quasi-clique of g.
func extendedByWitness(g *graph.Graph, child *Sub, k []graph.V, T []graph.V, gamma float64) bool {
	for _, w := range child.Label {
		_, inK := slices.BinarySearch(k, w)
		_, inT := slices.BinarySearch(T, w)
		if !inK && !inT && IsQuasiClique(g, insertSortedInto(nil, T, w), gamma) {
			return true
		}
	}
	return false
}
