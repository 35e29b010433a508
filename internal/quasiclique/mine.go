package quasiclique

import (
	"context"
	"slices"

	"gthinkerqc/internal/graph"
)

// MineStats summarizes one serial mining run.
type MineStats struct {
	// KCoreKept is the number of vertices surviving the global k-core
	// preprocessing (T1).
	KCoreKept int
	// Roots is the number of root tasks actually mined (vertices
	// whose candidate set passed the size threshold).
	Roots int
	// Nodes is the total number of set-enumeration tree nodes.
	Nodes int64
	// Candidates is the number of candidate emissions, repeats
	// included, before deduplication and the maximality filter: the
	// quasi-cliques the search reports that survive the emission screen
	// (Miner.Emit), the same count miner.Result.Candidates carries for
	// parallel runs. A node's own G(S) is checked only when no check
	// below it, bounding's included, met a quasi-clique holding S (see
	// Miner.RecursiveMine).
	Candidates int64
	// Results is the final result count.
	Results int
}

// MineGraph runs the paper's serial algorithm over an entire graph:
// global k-core shrink (T1), then one root task per surviving vertex v
// mining quasi-cliques whose minimum vertex is v (Section 3.1's
// set-enumeration partitioning), then the maximality post-filter.
func MineGraph(g *graph.Graph, par Params, opt Options) ([][]graph.V, MineStats, error) {
	return MineGraphContext(context.Background(), g, par, opt)
}

// MineGraphContext is MineGraph with cancellation: when ctx is done,
// mining unwinds promptly and the call returns the results found so
// far together with ctx.Err().
func MineGraphContext(ctx context.Context, g *graph.Graph, par Params, opt Options) ([][]graph.V, MineStats, error) {
	var stats MineStats
	if err := par.Validate(); err != nil {
		return nil, stats, err
	}
	gk, kept := PrepareGraph(g, par, opt)
	stats.KCoreKept = len(kept)
	var found [][]graph.V // every emission; Finalize drops repeats
	var ctxErr error
	// Poll ctx cheaply: a done channel probe per tree node would be
	// costly, so roots check directly and the per-node Abort hook
	// probes a shared flag refreshed here.
	cancelled := func() bool {
		if ctxErr != nil {
			return true
		}
		select {
		case <-ctx.Done():
			ctxErr = ctx.Err()
			return true
		default:
			return false
		}
	}
	// One Scratch and one pooled Miner serve every root task of the
	// run: task construction and mining both hit steady-state buffers.
	var scratch Scratch
	m := NewPooledMiner(par, opt)
	m.Abort = cancelled
	m.Emit = func(locals []uint32) { found = append(found, m.Sub.Labels(locals)) }
	for _, v := range kept {
		if cancelled() {
			break
		}
		rs := mineRoot(gk, v, par, opt, m, &scratch)
		stats.Nodes += rs.Nodes
		stats.Candidates += rs.Candidates
		if rs.Mined {
			stats.Roots++
		}
	}
	results := Finalize([][][]graph.V{found}, opt.SkipMaximalityFilter)
	stats.Results = len(results)
	return results, stats, ctxErr
}

// Gate is the vertex test every mining path applies before it builds
// anything: Live says whether a vertex can belong to a result, Root
// whether it can be the minimum vertex of one, so whether its root
// task is worth spawning. The engine's Spawn and pull rounds, the
// serial driver's BuildRootSubScratch and PrepareGraph, and qcstats's
// root count all ask it.
type Gate struct {
	g    *graph.Graph
	core []uint32 // g.CoreNumbers(); nil for the degree test
	k    int
}

// NewGate returns g's gate for par: core number ≥ k is the membership
// test, or degree ≥ k under opt.DisableKCore. The core numbers are g's
// memoized array, so jobs on one graph pay for the core pass once.
func NewGate(g *graph.Graph, par Params, opt Options) Gate {
	gt := Gate{g: g, k: par.K()}
	if !opt.DisableKCore {
		gt.core = g.CoreNumbers()
	}
	return gt
}

// Live reports whether u can belong to a result: it lies in G's
// k-core (T1, Theorem 2 applied to the whole graph), or, under the
// degree test, it has degree ≥ k (Theorem 2 alone).
func (gt Gate) Live(u graph.V) bool {
	if gt.core == nil {
		return gt.g.Degree(u) >= gt.k
	}
	return int(gt.core[u]) >= gt.k
}

// Root reports whether v can be the minimum vertex of a result: v is
// live and has n ≥ k live neighbours larger than v. It also returns
// those larger neighbours (live or not) and n; adj is v's sorted row,
// which holds no v. The test is exact: in a result T whose minimum
// vertex is v, v has at least ⌈γ(|T|−1)⌉ ≥ k neighbours, every one
// larger than v and live. A root it refuses would be peeled before
// mining on every path, since v's row in its task is those n
// neighbours, so refusing it changes no result and no search tree.
func (gt Gate) Root(v graph.V, adj []graph.V) (larger []graph.V, n int, ok bool) {
	if !gt.Live(v) {
		return nil, 0, false
	}
	// v's insertion point starts the larger neighbours.
	i, _ := slices.BinarySearch(adj, v)
	larger = adj[i:]
	for _, u := range larger {
		if gt.Live(u) {
			n++
		}
	}
	return larger, n, n >= gt.k
}

// PrepareGraph applies the global k-core preprocessing and returns the
// shrunk graph (same vertex universe, edges only among survivors) plus
// the sorted list of surviving vertices: the vertices and edges the
// gate's Live keeps.
func PrepareGraph(g *graph.Graph, par Params, opt Options) (*graph.Graph, []graph.V) {
	n := g.NumVertices()
	if opt.DisableKCore {
		all := make([]graph.V, n)
		for i := range all {
			all[i] = graph.V(i)
		}
		return g, all
	}
	gt := NewGate(g, par, opt)
	b := graph.NewBuilder(n)
	var kept []graph.V
	for v := 0; v < n; v++ {
		if !gt.Live(graph.V(v)) {
			continue
		}
		kept = append(kept, graph.V(v))
		for _, u := range g.Adj(graph.V(v)) {
			if u > graph.V(v) && gt.Live(u) {
				b.AddEdge(graph.V(v), u)
			}
		}
	}
	return b.MustBuild(), kept
}

// RootStats reports one root task's work.
type RootStats struct {
	Mined      bool
	Nodes      int64
	Candidates int64
}

// mineRoot mines all quasi-cliques whose minimum vertex is v on a
// pooled miner (Emit/Abort already installed) and per-run scratch: it
// builds the task subgraph over {v} ∪ {u ∈ B̄(v) : u > v}, shrunk to its
// k-core (Algorithms 6–7 do the same while pulling), and runs
// RecursiveMine rooted at S = {v}.
func mineRoot(gk *graph.Graph, v graph.V, par Params, opt Options, m *Miner, s *Scratch) RootStats {
	var rs RootStats
	sub, localV := BuildRootSubScratch(gk, v, par, opt, s)
	if sub == nil {
		return rs
	}
	m.Reset(sub)
	s.rootS = append(s.rootS[:0], localV)
	s.rootExt = s.rootExt[:0]
	for i := 0; i < sub.N(); i++ {
		if uint32(i) != localV {
			s.rootExt = append(s.rootExt, uint32(i))
		}
	}
	rs.Mined = true
	m.RecursiveMine(s.rootS, s.rootExt)
	rs.Nodes = m.Nodes
	rs.Candidates = m.EmitCount
	return rs
}

// BuildRootSub constructs the k-core-peeled task subgraph for the root
// vertex v over its >v two-hop neighborhood. It returns nil when the
// task is pruned outright (v has fewer than k neighbours larger than
// v, the candidate set is below the size threshold, or v is peeled out
// of the core). The second return value is v's local index.
func BuildRootSub(gk *graph.Graph, v graph.V, par Params, opt Options) (*Sub, uint32) {
	var s Scratch
	return BuildRootSubScratch(gk, v, par, opt, &s)
}

// BuildRootSubScratch is BuildRootSub with a caller-provided Scratch:
// the two-hop scan, candidate filtering, and subgraph induction all
// run on reusable per-worker buffers instead of per-call maps.
//
// With k-core peeling on, v must first pass the engine's root gate
// (Gate.Root): at least k neighbours larger than v. On PrepareGraph's
// k-core a vertex is live exactly when its degree is ≥ k, so the
// degree gate over gk is the core gate over the input graph, and every
// kept vertex that fails it would be peeled below. With DisableKCore
// nothing is peeled and the gate is not asked.
func BuildRootSubScratch(gk *graph.Graph, v graph.V, par Params, opt Options, s *Scratch) (*Sub, uint32) {
	k := par.K()
	if !opt.DisableKCore {
		gate := NewGate(gk, par, Options{DisableKCore: true})
		if _, _, ok := gate.Root(v, gk.Adj(v)); !ok {
			return nil, 0
		}
	}
	s.cand = gk.Within2Scratch(v, s.cand[:0], &s.marks)
	// Within2 leaves v out, so v's insertion point starts the IDs > v.
	i, _ := slices.BinarySearch(s.cand, v)
	cand := s.cand[i:]
	if 1+len(cand) < par.MinSize {
		return nil, 0
	}
	s.verts = append(s.verts[:0], v)
	s.verts = append(s.verts, cand...) // v < all of cand, so sorted
	// With k-core peeling on (the default), the peel's Induce rebuilds
	// Label from scratch and the unpeeled Sub dies here, so it may
	// alias the scratch buffer; only the no-peel path needs its own
	// label copy (the Sub escapes holding it).
	sub := subFromGraph(gk, s.verts, s, opt.DisableKCore)
	if !opt.DisableKCore {
		peeled, _ := sub.PeelKCoreScratch(k, s)
		sub = peeled
		if sub.N() == 0 || sub.Label[0] != v {
			return nil, 0 // v itself was peeled: no quasi-clique rooted here
		}
	}
	if sub.N() < par.MinSize {
		return nil, 0
	}
	return sub, 0 // v is the smallest label, so local index 0
}
