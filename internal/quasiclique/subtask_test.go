package quasiclique

import (
	"math/rand"
	"sort"
	"testing"

	"gthinkerqc/internal/graph"
	"gthinkerqc/internal/vset"
)

// makeSubtaskReference is the pre-scratch implementation kept as the
// test oracle: independent allocations, position mapping by binary
// search.
func makeSubtaskReference(parent *Sub, S, ext []uint32) (*Sub, []uint32, []uint32) {
	keep := make([]uint32, 0, len(S)+len(ext))
	keep = append(keep, S...)
	keep = append(keep, ext...)
	vset.Sort(keep)
	child := parent.Induce(keep)
	pos := func(x uint32) uint32 {
		i := sort.Search(len(keep), func(i int) bool { return keep[i] >= x })
		return uint32(i)
	}
	newS := make([]uint32, len(S))
	for i, x := range S {
		newS[i] = pos(x)
	}
	vset.Sort(newS)
	newExt := make([]uint32, len(ext))
	for i, x := range ext {
		newExt[i] = pos(x)
	}
	vset.Sort(newExt)
	return child, newS, newExt
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
	vset.Sort(S)
	// ext arrives unsorted in real calls (applyCover reorders it);
	// leave it in permutation order half the time.
	if rng.Intn(2) == 0 {
		vset.Sort(ext)
	}
	return S, ext
}

func subsEqual(a, b *Sub) bool {
	if a.N() != b.N() {
		return false
	}
	for i := range a.Label {
		if a.Label[i] != b.Label[i] {
			return false
		}
	}
	for i := range a.Adj {
		if len(a.Adj[i]) != len(b.Adj[i]) {
			return false
		}
		for j := range a.Adj[i] {
			if a.Adj[i][j] != b.Adj[i][j] {
				return false
			}
		}
	}
	return true
}

// TestMakeSubtaskMatchesReference checks all three forms against the
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
		for _, form := range []struct {
			name string
			call func() (*Sub, []uint32, []uint32)
		}{
			{"Into", func() (*Sub, []uint32, []uint32) { return MakeSubtaskInto(parent, S, ext, &sc) }},
			{"Scratch", func() (*Sub, []uint32, []uint32) { return MakeSubtaskScratch(parent, S, ext, &sc) }},
		} {
			gotSub, gotS, gotExt := form.call()
			if !subsEqual(gotSub, wantSub) {
				t.Fatalf("iter=%d %s: child subgraph differs", iter, form.name)
			}
			if !vset.Equal(gotS, wantS) || !vset.Equal(gotExt, wantExt) {
				t.Fatalf("iter=%d %s: S'/ext' differ: %v/%v vs %v/%v",
					iter, form.name, gotS, gotExt, wantS, wantExt)
			}
		}
	}
}

// TestMakeSubtaskScratchIndependence verifies the Offload contract:
// the copied-out child must stay intact after the scratch is reused by
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
	if !subsEqual(child1, wantSub) || !vset.Equal(s1, wantS) || !vset.Equal(e1, wantExt) {
		t.Fatal("retained child mutated by later scratch reuse")
	}
}

// TestMakeSubtaskIntoZeroAlloc is the PR 6 acceptance criterion: the
// spawn-loop form allocates nothing once the scratch is warm.
func TestMakeSubtaskIntoZeroAlloc(t *testing.T) {
	g := randomGraph(9, 64, 0.3)
	all := make([]graph.V, 64)
	for i := range all {
		all[i] = graph.V(i)
	}
	parent := SubFromGraph(g, all)
	rng := rand.New(rand.NewSource(2))
	S, ext := randomSplit(rng, 64)
	var sc Scratch
	MakeSubtaskInto(parent, S, ext, &sc) // warm the buffers
	allocs := testing.AllocsPerRun(100, func() {
		MakeSubtaskInto(parent, S, ext, &sc)
	})
	if allocs != 0 {
		t.Fatalf("MakeSubtaskInto: %v allocs/op in steady state, want 0", allocs)
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
	vset.Sort(S)
	vset.Sort(ext)

	b.Run("into", func(b *testing.B) {
		var sc Scratch
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			MakeSubtaskInto(parent, S, ext, &sc)
		}
	})
	b.Run("scratch", func(b *testing.B) {
		var sc Scratch
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			MakeSubtaskScratch(parent, S, ext, &sc)
		}
	})
}
