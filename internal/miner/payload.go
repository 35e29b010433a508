// Package miner is the parallel quasi-clique application on top of the
// reforged G-thinker engine — the paper's Section 6. It implements
// task spawning (Algorithm 4), the three compute iterations
// (Algorithms 5–8), and both decomposition strategies: size-threshold
// (Algorithm 8) and the paper's headline time-delayed decomposition
// (Algorithms 9–10).
//
// # Post-processing
//
// The search emits valid quasi-cliques that need not be maximal, so
// every job ends with the maximality filter — and nothing of it runs
// on one goroutine behind an idle cluster. Each worker appends every
// set it emits to its own list (app.found). When the job returns, each
// machine's app.Results hands its lists to quasiclique.Finalize, the
// one finalize function that serial MineGraph, Session.Mine and the
// worker process all call: it filters every worker's candidates on
// their own, W goroutines side by side (a set that is not maximal
// among one worker's finds is not maximal at all), and then filters
// the union of the survivors once. So a machine ships only its own
// survivors (about a tenth of its candidates on a dense core) plus its
// emission count, and the session filters the union of the machines'
// frames. Finalize is also the one place repeats are dropped — equal
// sets end up adjacent in canonical order — whether one search reached
// a set twice or a recovered machine's roots were mined again. The
// filter itself (quasiclique.FilterMaximal) splits the sets into
// vertex-disjoint components and answers containment from per-vertex
// posting bitmaps; see maximal.go there. Options.SkipMaximalityFilter
// turns all of it off: every distinct candidate comes back and no
// pre-filter runs anywhere.
package miner

import (
	"gthinkerqc/internal/graph"
	"gthinkerqc/internal/quasiclique"
)

// Payload is the task state carried between compute iterations;
// spillcodec.go serializes it for spill files and the wire.
type Payload struct {
	// Iteration ∈ {1, 2, 3} selects the next compute stage.
	Iteration int
	// Root is the spawning vertex; every quasi-clique found by this
	// task (and its subtasks) has Root as its minimum vertex, and all
	// timing is attributed to it.
	Root graph.V

	// Partial two-hop subgraph under construction (iterations 1–2):
	// GVerts is sorted; GAdj is parallel to it and may reference
	// not-yet-pulled two-hop vertices (they count toward degree in
	// the iteration-1 peel, per Algorithm 6). It lives only while the
	// task waits on its worker's pending list, so the task codec never
	// writes it.
	GVerts []graph.V
	GAdj   [][]graph.V

	// Mining state (iteration 3, including decomposed subtasks).
	Sub *quasiclique.Sub
	S   []uint32
	Ext []uint32
}

// extSize estimates |ext(S)| for big-task classification before the
// mining state exists (iterations 1–2 use the best available proxy).
func (p *Payload) extSize(pullCount int) int {
	switch p.Iteration {
	case 3:
		return len(p.Ext)
	case 2:
		return len(p.GVerts)
	default:
		return pullCount
	}
}
