package quasiclique

import (
	"math/rand"
	"slices"
	"testing"

	"gthinkerqc/internal/bitset"
	"gthinkerqc/internal/graph"
)

// makeSubtaskReference is the test oracle for MakeSubtaskScratch:
// independent allocations, the naive map-based induction, and position
// mapping through the same map.
func makeSubtaskReference(parent *Sub, S, ext []uint32) (*Sub, []uint32, []uint32) {
	keep := make([]uint32, 0, len(S)+len(ext))
	keep = append(keep, S...)
	keep = append(keep, ext...)
	slices.Sort(keep)
	pos, adj := naiveInduce(keep, func(i int) []uint32 { return parent.Adj[keep[i]] })
	label := make([]graph.V, len(keep))
	for i, v := range keep {
		label[i] = parent.Label[v]
	}
	newS := make([]uint32, len(S))
	for i, x := range S {
		newS[i] = pos[x]
	}
	slices.Sort(newS)
	newExt := make([]uint32, len(ext))
	for i, x := range ext {
		newExt[i] = pos[x]
	}
	slices.Sort(newExt)
	return &Sub{Label: label, Adj: adj}, newS, newExt
}

// witnessReference is the test oracle for Subtask's witness rows: the
// parent locals outside K = S ∪ ext that could extend some set T with
// S ⊊ T ⊆ K and |T| ≥ τsize, ascending, and how many of them fit K's
// row stride.
func witnessReference(parent *Sub, S, ext []uint32, par Params) (qualify []uint32, room int) {
	inK := map[uint32]bool{}
	for _, v := range append(slices.Clone(S), ext...) {
		inK[v] = true
	}
	room = 64*bitset.WordsFor(len(inK)) - len(inK)
	var out []uint32
	for v := 0; v < parent.N(); v++ {
		if inK[uint32(v)] {
			continue
		}
		// w qualifies if some size t of a set T with S ⊊ T ⊆ K and
		// |T| ≥ τsize leaves it ⌈γt⌉ neighbours in T: its a
		// neighbours in S and at most min(t−|S|, b) of its b in ext.
		a, b := 0, 0
		for _, u := range parent.Adj[v] {
			switch {
			case slices.Contains(S, u):
				a++
			case inK[u]:
				b++
			}
		}
		for t := max(len(S)+1, par.MinSize); t <= len(inK); t++ {
			if a+min(t-len(S), b) >= CeilMul(par.Gamma, t) {
				out = append(out, uint32(v))
				break
			}
		}
	}
	return out, min(room, len(out))
}

// subtaskReference is the test oracle for Subtask: the child over K =
// S ∪ ext and witnessReference's witnesses, in label order, as
// adjacency lists. Every row lists its vertex's neighbours in K, so a
// witness lists its own and no row lists a witness.
func subtaskReference(parent *Sub, S, ext []uint32, par Params) (*Sub, []uint32, []uint32) {
	inK := map[uint32]bool{}
	all := append(slices.Clone(S), ext...)
	for _, v := range all {
		inK[v] = true
	}
	witnesses, room := witnessReference(parent, S, ext, par)
	all = append(all, witnesses[:room]...)
	slices.Sort(all)
	pos := map[uint32]uint32{}
	for i, v := range all {
		pos[v] = uint32(i)
	}
	child := &Sub{Label: make([]graph.V, len(all)), Adj: make([][]uint32, len(all))}
	for i, v := range all {
		child.Label[i] = parent.Label[v]
		for _, u := range parent.Adj[v] {
			if inK[u] {
				child.Adj[i] = append(child.Adj[i], pos[u])
			}
		}
		slices.Sort(child.Adj[i])
	}
	mapSorted := func(xs []uint32) []uint32 {
		out := make([]uint32, len(xs))
		for i, x := range xs {
			out[i] = pos[x]
		}
		slices.Sort(out)
		return out
	}
	return child, mapSorted(S), mapSorted(ext)
}

// dropWitnesses restricts a rows child to its members of S′ ∪ ext′, as
// a list Sub with S′ and ext′ renumbered: what the child would be
// without witness rows.
func dropWitnesses(child *Sub, S, ext []uint32) (*Sub, []uint32, []uint32) {
	keep := append(slices.Clone(S), ext...)
	slices.Sort(keep)
	stride := bitset.WordsFor(child.N())
	_, adj := naiveInduce(keep, func(i int) []uint32 {
		v := int(keep[i])
		return bitset.AppendBits(nil, child.Rows[v*stride:(v+1)*stride])
	})
	out := &Sub{Label: make([]graph.V, len(keep)), Adj: adj}
	for i, v := range keep {
		out.Label[i] = child.Label[v]
	}
	renumber := func(xs []uint32) []uint32 {
		out := make([]uint32, len(xs))
		for i, x := range xs {
			out[i] = uint32(slices.Index(keep, x))
		}
		return out
	}
	return out, renumber(S), renumber(ext)
}

// randomSplit picks a random disjoint (S, ext) pair of parent locals.
func randomSplit(rng *rand.Rand, n int) (S, ext []uint32) {
	perm := rng.Perm(n)
	ns := 1 + rng.Intn(3)
	ne := 1 + rng.Intn(n-ns)
	for _, v := range perm[:ns] {
		S = append(S, uint32(v))
	}
	for _, v := range perm[ns : ns+ne] {
		ext = append(ext, uint32(v))
	}
	slices.Sort(S)
	// ext arrives unsorted in real calls (applyCover reorders it);
	// leave it in permutation order half the time.
	if rng.Intn(2) == 0 {
		slices.Sort(ext)
	}
	return S, ext
}

func subsEqual(a, b *Sub) bool {
	if !slices.Equal(a.Label, b.Label) || len(a.Adj) != len(b.Adj) {
		return false
	}
	for i := range a.Adj {
		if !slices.Equal(a.Adj[i], b.Adj[i]) {
			return false
		}
	}
	return true
}

// TestMakeSubtaskMatchesReference checks MakeSubtaskScratch against the
// oracle across random parents and splits, reusing ONE Scratch
// throughout so stale buffer contents from earlier calls must not leak.
func TestMakeSubtaskMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var sc Scratch
	for iter := 0; iter < 200; iter++ {
		n := 4 + rng.Intn(30)
		g := randomGraph(int64(iter), n, 0.2+0.6*rng.Float64())
		all := make([]graph.V, n)
		for i := range all {
			all[i] = graph.V(i)
		}
		parent := SubFromGraph(g, all)
		S, ext := randomSplit(rng, n)

		wantSub, wantS, wantExt := makeSubtaskReference(parent, S, ext)
		gotSub, gotS, gotExt := MakeSubtaskScratch(parent, S, ext, &sc)
		if !subsEqual(gotSub, wantSub) {
			t.Fatalf("iter=%d: child subgraph differs", iter)
		}
		if !slices.Equal(gotS, wantS) || !slices.Equal(gotExt, wantExt) {
			t.Fatalf("iter=%d: S'/ext' differ: %v/%v vs %v/%v",
				iter, gotS, gotExt, wantS, wantExt)
		}
	}
}

// TestMakeSubtaskScratchIndependence verifies the Offload contract:
// the returned child must stay intact after the scratch is reused by
// a later call.
func TestMakeSubtaskScratchIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := randomGraph(3, 20, 0.5)
	all := make([]graph.V, 20)
	for i := range all {
		all[i] = graph.V(i)
	}
	parent := SubFromGraph(g, all)
	var sc Scratch

	S1, ext1 := randomSplit(rng, 20)
	child1, s1, e1 := MakeSubtaskScratch(parent, S1, ext1, &sc)
	wantSub, wantS, wantExt := makeSubtaskReference(parent, S1, ext1)

	// Clobber the scratch with different splits.
	for i := 0; i < 10; i++ {
		S2, ext2 := randomSplit(rng, 20)
		MakeSubtaskScratch(parent, S2, ext2, &sc)
	}
	if !subsEqual(child1, wantSub) || !slices.Equal(s1, wantS) || !slices.Equal(e1, wantExt) {
		t.Fatal("retained child mutated by later scratch reuse")
	}
}

// TestMakeSubtaskScratchAllocs holds a warm MakeSubtaskScratch to the
// child's own three allocations: the shared backing array, the row
// headers and the Sub.
func TestMakeSubtaskScratchAllocs(t *testing.T) {
	g := randomGraph(9, 64, 0.3)
	all := make([]graph.V, 64)
	for i := range all {
		all[i] = graph.V(i)
	}
	parent := SubFromGraph(g, all)
	rng := rand.New(rand.NewSource(2))
	S, ext := randomSplit(rng, 64)
	var sc Scratch
	MakeSubtaskScratch(parent, S, ext, &sc) // warm the buffers
	allocs := testing.AllocsPerRun(100, func() {
		MakeSubtaskScratch(parent, S, ext, &sc)
	})
	if allocs > 3 {
		t.Fatalf("MakeSubtaskScratch: %v allocs/op in steady state, want ≤ 3", allocs)
	}
}

// randomDisjoint picks a random disjoint (S, ext) pair of n parent
// locals, either side possibly empty, S sorted and ext in random order.
func randomDisjoint(rng *rand.Rand, n int) (S, ext []uint32) {
	perm := rng.Perm(n)
	ns := rng.Intn(min(n, 4) + 1)
	ne := rng.Intn(n - ns + 1)
	for _, v := range perm[:ns] {
		S = append(S, uint32(v))
	}
	for _, v := range perm[ns : ns+ne] {
		ext = append(ext, uint32(v))
	}
	slices.Sort(S)
	return S, ext
}

// TestSubtaskRowsMatchInduce checks Miner.Subtask on random parents of
// 1–200 vertices (row strides of one to four words, across the 63/64/65
// and 128/129 edges) and random disjoint S/ext, on ONE miner rebound to
// every parent, so stale position-table or transient-row contents must
// not leak. Without its witness rows the child must be what
// MakeSubtaskScratch induces on S ∪ ext: the labels, S′ and ext′ equal,
// and row i holding exactly the induced child's Adj[i]. With them it
// must be subtaskReference's child, rows of the same stride. A warm
// Subtask takes at most two allocations.
func TestSubtaskRowsMatchInduce(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	par := Params{Gamma: 0.5, MinSize: 2}
	m := NewPooledMiner(par, Options{})
	var sc Scratch
	sizes := []int{1, 2, 63, 64, 65, 127, 128, 129, 200}
	for len(sizes) < 60 {
		sizes = append(sizes, 1+rng.Intn(200))
	}
	witnesses := 0
	for iter, n := range sizes {
		parent := SubFromGraph(randomGraph(int64(iter), n, 0.05+0.6*rng.Float64()), allVerts(n))
		m.Reset(parent)
		for split := 0; split < 4; split++ {
			S, ext := randomDisjoint(rng, n)
			want, wantS, wantExt := MakeSubtaskScratch(parent, S, ext, &sc)
			child, childS, childExt := m.Subtask(S, ext)
			if child.Adj != nil {
				t.Fatalf("n=%d split %d: Subtask built adjacency lists", n, split)
			}
			got, gotS, gotExt := dropWitnesses(child, childS, childExt)
			if !slices.Equal(got.Label, want.Label) || !slices.Equal(gotS, wantS) || !slices.Equal(gotExt, wantExt) {
				t.Fatalf("n=%d split %d: labels/S'/ext' %v/%v/%v, want %v/%v/%v",
					n, split, got.Label, gotS, gotExt, want.Label, wantS, wantExt)
			}
			if !subsEqual(got, want) {
				t.Fatalf("n=%d split %d: K's rows differ from the induced child", n, split)
			}
			ref, refS, refExt := subtaskReference(parent, S, ext, par)
			if !slices.Equal(child.Label, ref.Label) || !slices.Equal(childS, refS) || !slices.Equal(childExt, refExt) {
				t.Fatalf("n=%d split %d: with witnesses labels/S'/ext' %v/%v/%v, want %v/%v/%v",
					n, split, child.Label, childS, childExt, ref.Label, refS, refExt)
			}
			if err := rowsMatchAdj(child.Rows, ref.Adj); err != nil {
				t.Fatalf("n=%d split %d: %v", n, split, err)
			}
			if bitset.WordsFor(child.N()) != bitset.WordsFor(len(S)+len(ext)) {
				t.Fatalf("n=%d split %d: witness rows widened the stride", n, split)
			}
			witnesses += child.N() - len(S) - len(ext)
		}
	}
	if witnesses == 0 {
		t.Fatal("no subtask kept a witness row")
	}

	parent := SubFromGraph(randomGraph(9, 129, 0.3), allVerts(129))
	m.Reset(parent)
	S, ext := randomSplit(rng, 129)
	m.Subtask(S, ext) // warm
	if allocs := testing.AllocsPerRun(100, func() { m.Subtask(S, ext) }); allocs > 2 {
		t.Fatalf("Subtask: %v allocs/op warm, want ≤ 2", allocs)
	}
}

// TestSubtaskIndependence is TestMakeSubtaskScratchIndependence for
// Subtask: a retained child stays intact while the miner makes later
// children and is rebound to another task.
func TestSubtaskIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	parent := SubFromGraph(randomGraph(3, 20, 0.5), allVerts(20))
	m := NewPooledMiner(Params{Gamma: 0.5, MinSize: 2}, Options{})
	m.Reset(parent)

	S1, ext1 := randomSplit(rng, 20)
	child1, s1, e1 := m.Subtask(S1, ext1)
	wantSub, wantS, wantExt := subtaskReference(parent, S1, ext1, m.Par)

	// Clobber the miner with different splits and another parent.
	for i := 0; i < 10; i++ {
		S2, ext2 := randomSplit(rng, 20)
		m.Subtask(S2, ext2)
	}
	m.Reset(SubFromGraph(randomGraph(4, 70, 0.4), allVerts(70)))
	S3, ext3 := randomSplit(rng, 70)
	m.Subtask(S3, ext3)
	if !slices.Equal(child1.Label, wantSub.Label) || !slices.Equal(s1, wantS) || !slices.Equal(e1, wantExt) {
		t.Fatal("retained child's labels or sets mutated by later subtasks")
	}
	if err := rowsMatchAdj(child1.Rows, wantSub.Adj); err != nil {
		t.Fatalf("retained child's rows mutated by later subtasks: %v", err)
	}
}

func allVerts(n int) []graph.V {
	all := make([]graph.V, n)
	for i := range all {
		all[i] = graph.V(i)
	}
	return all
}

func BenchmarkMakeSubtask(b *testing.B) {
	g := randomGraph(9, 256, 0.2)
	all := make([]graph.V, 256)
	for i := range all {
		all[i] = graph.V(i)
	}
	parent := SubFromGraph(g, all)
	rng := rand.New(rand.NewSource(2))
	var S, ext []uint32
	perm := rng.Perm(256)
	for _, v := range perm[:3] {
		S = append(S, uint32(v))
	}
	for _, v := range perm[3:120] {
		ext = append(ext, uint32(v))
	}
	slices.Sort(S)
	slices.Sort(ext)

	b.Run("scratch", func(b *testing.B) {
		var sc Scratch
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			MakeSubtaskScratch(parent, S, ext, &sc)
		}
	})
	b.Run("rows", func(b *testing.B) {
		m := NewPooledMiner(Params{Gamma: 0.5, MinSize: 2}, Options{})
		m.Reset(parent)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m.Subtask(S, ext)
		}
	})
}
