package quasiclique

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"gthinkerqc/internal/graph"
)

// naiveInduce is the map-based induction Induce is checked against:
// pos maps each member of keep to its position, and row i of adj is
// row(i) restricted to keep, relabelled through pos and sorted.
func naiveInduce(keep []uint32, row func(i int) []uint32) (map[uint32]uint32, [][]uint32) {
	pos := make(map[uint32]uint32, len(keep))
	for i, v := range keep {
		pos[v] = uint32(i)
	}
	adj := make([][]uint32, len(keep))
	for i := range keep {
		for _, u := range row(i) {
			if p, ok := pos[u]; ok {
				adj[i] = append(adj[i], p)
			}
		}
		slices.Sort(adj[i])
	}
	return pos, adj
}

// randomKeep returns a sorted random subset of [0, n), each member
// kept with probability p.
func randomKeep(rng *rand.Rand, n int, p float64) []uint32 {
	var out []uint32
	for v := 0; v < n; v++ {
		if rng.Float64() < p {
			out = append(out, uint32(v))
		}
	}
	return out
}

// diffSub describes the first difference between got and want.
func diffSub(got, want *Sub) error {
	if !slices.Equal(got.Label, want.Label) {
		return fmt.Errorf("labels %v, want %v", got.Label, want.Label)
	}
	if len(got.Adj) != len(want.Adj) {
		return fmt.Errorf("%d rows, want %d", len(got.Adj), len(want.Adj))
	}
	for i := range got.Adj {
		if !slices.Equal(got.Adj[i], want.Adj[i]) {
			return fmt.Errorf("row %d = %v, want %v", i, got.Adj[i], want.Adj[i])
		}
		if cap(got.Adj[i]) != len(got.Adj[i]) {
			return fmt.Errorf("row %d not capacity clamped", i)
		}
	}
	return nil
}

// TestInduceMatchesNaive checks the one induction routine against the
// naive map-based induction in the shape of each of its callers, over
// random graphs. One Scratch serves every call: the ID space switches
// between global IDs and a Sub's local indices from call to call, so a
// mark left over from an earlier generation would show as a wrong row.
func TestInduceMatchesNaive(t *testing.T) {
	shapes := []struct {
		name string
		run  func(rng *rand.Rand, g *graph.Graph, sc *Scratch) error
	}{
		{"graph rows", func(rng *rand.Rand, g *graph.Graph, sc *Scratch) error {
			verts := randomKeep(rng, g.NumVertices(), rng.Float64())
			_, got := Induce(verts, g.NumVertices(), func(i int) []uint32 { return g.Adj(verts[i]) }, 0, 0, sc)
			_, adj := naiveInduce(verts, func(i int) []uint32 { return g.Adj(verts[i]) })
			return diffSub(&Sub{Label: verts, Adj: got}, &Sub{Label: verts, Adj: adj})
		}},
		{"Sub rows relabelled by a peel", func(rng *rand.Rand, g *graph.Graph, sc *Scratch) error {
			parent := SubFromGraph(g, randomKeep(rng, g.NumVertices(), 0.5+0.5*rng.Float64()))
			got, kept := parent.PeelKCoreScratch(rng.Intn(4), sc)
			_, adj := naiveInduce(kept, func(i int) []uint32 { return parent.Adj[kept[i]] })
			label := make([]graph.V, len(kept))
			for i, v := range kept {
				label[i] = parent.Label[v]
			}
			return diffSub(got, &Sub{Label: label, Adj: adj})
		}},
		{"subtask with an unsorted ext", func(rng *rand.Rand, g *graph.Graph, sc *Scratch) error {
			all := make([]graph.V, g.NumVertices())
			for i := range all {
				all[i] = graph.V(i)
			}
			parent := SubFromGraph(g, all)
			S, ext := randomSplit(rng, parent.N())
			rng.Shuffle(len(ext), func(i, j int) { ext[i], ext[j] = ext[j], ext[i] })
			got, gotS, gotExt := MakeSubtaskScratch(parent, S, ext, sc)
			want, wantS, wantExt := makeSubtaskReference(parent, S, ext)
			if !slices.Equal(gotS, wantS) || !slices.Equal(gotExt, wantExt) {
				return fmt.Errorf("S'/ext' = %v/%v, want %v/%v", gotS, gotExt, wantS, wantExt)
			}
			return diffSub(got, want)
		}},
		{"iteration 2's mixed rows", func(rng *rand.Rand, g *graph.Graph, sc *Scratch) error {
			// Members in collect order: a root and some neighbours with
			// filtered rows (only IDs ≥ the root, some dropped), then
			// pulled vertices with their whole graph rows.
			n := g.NumVertices()
			v := graph.V(rng.Intn(n))
			rowOf := map[graph.V][]graph.V{}
			var filtered []graph.V
			for _, w := range g.Adj(v) {
				if w > v && rng.Intn(3) > 0 {
					filtered = append(filtered, w)
				}
			}
			rowOf[v] = filtered
			for _, u := range filtered {
				var row []graph.V
				for _, w := range g.Adj(u) {
					if w >= v && rng.Intn(4) > 0 {
						row = append(row, w)
					}
				}
				rowOf[u] = row
			}
			for _, u := range randomKeep(rng, n, 0.3) {
				if _, ok := rowOf[u]; !ok {
					rowOf[u] = g.Adj(u)
				}
			}
			verts := make([]graph.V, 0, len(rowOf))
			for u := range rowOf {
				verts = append(verts, u)
			}
			slices.Sort(verts)
			row := func(i int) []uint32 { return rowOf[verts[i]] }
			head, tail := rng.Intn(3), rng.Intn(3)
			buf, adj := Induce(verts, n, row, head, tail, sc)
			_, want := naiveInduce(verts, row)
			total := 0
			for _, r := range want {
				total += len(r)
			}
			if len(buf) != head+total+tail {
				return fmt.Errorf("buffer of %d entries, want %d+%d+%d", len(buf), head, total, tail)
			}
			return diffSub(&Sub{Label: verts, Adj: adj}, &Sub{Label: verts, Adj: want})
		}},
	}
	rng := rand.New(rand.NewSource(39))
	var sc Scratch
	for iter := 0; iter < 300; iter++ {
		n := 4 + rng.Intn(40)
		g := randomGraph(int64(iter), n, 0.1+0.7*rng.Float64())
		for _, sh := range shapes {
			if err := sh.run(rng, g, &sc); err != nil {
				t.Fatalf("iter=%d n=%d %s: %v", iter, n, sh.name, err)
			}
		}
	}
}
