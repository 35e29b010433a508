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
// every job ends with the maximality filter. Each worker appends every
// set it emits to its own list (app.found). When the job returns, each
// machine's app.Results hands its lists to quasiclique.Finalize, the
// one finalize function that serial MineGraph, Session.Mine and the
// worker process all call: it filters the union of the workers'
// candidates once (filtering each worker's list first, side by side,
// measured slower). So a machine ships only its own survivors (about a
// tenth of its candidates on a dense core) plus its emission count,
// and the session filters the union of the machines' frames. Finalize
// is also the one place repeats are dropped — equal sets end up
// adjacent in canonical order — whether one search reached a set twice
// or a recovered machine's roots were mined again. The filter itself
// (quasiclique.FilterMaximal) splits the sets into vertex-disjoint
// components and answers containment from per-vertex posting bitmaps,
// probing long levels on several goroutines; see maximal.go there.
// Options.SkipMaximalityFilter turns all of it off: every distinct
// candidate comes back.
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

	// Partial is the peeled partial two-hop subgraph of iterations 1–2
	// (see partialGraph): the kept 1-hop members, v first, and their
	// rows, which may name not-yet-pulled two-hop vertices (they count
	// toward degree in the iteration-1 peel, per Algorithm 6). It is
	// the one allocation a root makes in iteration 1, and it lives only
	// while the task waits on its worker's pending list, so the task
	// codec never writes it.
	Partial partialGraph

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
		return p.Partial.len()
	default:
		return pullCount
	}
}

// partialGraph is a list subgraph over global IDs in one buffer: m,
// then the m members in ascending order, then m+1 row bounds (indices
// into the buffer), then the rows. A nil partialGraph is empty.
type partialGraph []graph.V

// makePartial returns a zeroed partialGraph of m members and cells row
// entries, its m in place.
func makePartial(m, cells int) partialGraph {
	h := make(partialGraph, 2+2*m+cells)
	h[0] = graph.V(m)
	return h
}

func (h partialGraph) len() int {
	if len(h) == 0 {
		return 0
	}
	return int(h[0])
}

func (h partialGraph) members() []graph.V { return h[1 : 1+h.len()] }

// bounds returns the m+1 row bounds.
func (h partialGraph) bounds() []graph.V { m := h.len(); return h[1+m : 2+2*m] }

// row returns member i's row.
func (h partialGraph) row(i int) []graph.V {
	b := h.bounds()
	return h[b[i]:b[i+1]:b[i+1]]
}
