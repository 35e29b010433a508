package quasiclique

import (
	"math/rand"
	"slices"
	"testing"

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
}
