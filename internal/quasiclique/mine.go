package quasiclique

import (
	"context"
	"slices"

	"gthinkerqc/internal/graph"
)

// MineStats summarizes one serial mining run.
type MineStats struct {
	// Roots is the number of root tasks actually mined (vertices
	// whose peeled root task passed the size threshold).
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
// one root task per vertex v that Gate.Root admits, mining the
// quasi-cliques whose minimum vertex is v (Section 3.1's
// set-enumeration partitioning), then the maximality post-filter.
func MineGraph(g *graph.Graph, par Params, opt Options) ([][]graph.V, MineStats, error) {
	return MineGraphContext(context.Background(), g, par, opt)
}

// MineGraphContext is MineGraph with cancellation: when ctx is done,
// mining unwinds promptly and the call returns the results found so
// far together with ctx.Err().
//
// Each root is built the way the engine builds one (Algorithm 7):
// v's members are v and its larger live two-hop set (rootMembers), and
// RootSub induces them on G's own rows and peels them to the k-core,
// so no job rebuilds G's k-core as a graph.
func MineGraphContext(ctx context.Context, g *graph.Graph, par Params, opt Options) ([][]graph.V, MineStats, error) {
	var stats MineStats
	if err := par.Validate(); err != nil {
		return nil, stats, err
	}
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
	gt := NewGate(g, par, opt)
	n, k := g.NumVertices(), par.K()
	var members []graph.V
	row := func(i int) []uint32 { return g.Adj(members[i]) }
	for v := graph.V(0); int(v) < n; v++ {
		// Root's first test, inlined: a selective job refuses most
		// vertices here, before any call.
		if !gt.Live(v) {
			continue
		}
		members = gt.rootMembers(v, &scratch)
		if len(members) < par.MinSize {
			continue
		}
		if cancelled() {
			break
		}
		sub, S, ext := RootSub(members, n, row, k, &scratch)
		if sub == nil || sub.N() < par.MinSize {
			continue
		}
		m.Reset(sub)
		m.RecursiveMine(S, ext)
		stats.Roots++
		stats.Nodes += m.Nodes
		stats.Candidates += m.EmitCount
	}
	results := Finalize([][][]graph.V{found}, opt.SkipMaximalityFilter)
	stats.Results = len(results)
	return results, stats, ctxErr
}

// Gate is the vertex test every mining path applies before it builds
// anything: Live says whether a vertex can belong to a result, Root
// whether it can be the minimum vertex of one, so whether its root
// task is worth spawning. The engine's Spawn and pull rounds, the
// serial driver's root loop, PrepareGraph, and qcstats's root count
// all ask it.
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

// rootMembers returns the member set of v's root task in s.verts, or
// nil when Root refuses v: v followed by every live u > v within two
// hops of v through a live neighbour of any ID, sorted. That is
// {v} ∪ {u ∈ B̄(v) : u > v} over the graph of live vertices (P1 and
// T1), the set Algorithm 7 induces; s's marker does the dedup.
func (gt Gate) rootMembers(v graph.V, s *Scratch) []graph.V {
	adj := gt.g.Adj(v)
	if _, _, ok := gt.Root(v, adj); !ok {
		return nil
	}
	marks := &s.marks
	marks.Begin(gt.g.NumVertices())
	marks.Mark(v)
	members := append(s.verts[:0], v)
	for _, w := range adj {
		if !gt.Live(w) {
			continue
		}
		if !marks.Marked(w) && w > v {
			marks.Mark(w)
			members = append(members, w)
		}
		// Rows are sorted: v's insertion point starts the IDs > v.
		row := gt.g.Adj(w)
		i, _ := slices.BinarySearch(row, v)
		for _, u := range row[i:] {
			if !marks.Marked(u) {
				marks.Mark(u) // a dead u stays out on every later sighting
				if gt.Live(u) {
					members = append(members, u)
				}
			}
		}
	}
	slices.Sort(members[1:])
	s.verts = members
	return members
}

// BuildRootSub is the serial root task of v as a list Sub over gk,
// PrepareGraph's output: rootMembers under the degree gate, which
// equals the core gate on a k-core, induced and peeled by rootList. It
// returns nil when the gate refuses v, the peel drops v, or fewer than
// τsize vertices remain. The second return value is v's local index,
// always 0. opt is not read: gk already carries it.
func BuildRootSub(gk *graph.Graph, v graph.V, par Params, opt Options) (*Sub, uint32) {
	var s Scratch
	return BuildRootSubScratch(gk, v, par, opt, &s)
}

// BuildRootSubScratch is BuildRootSub on a caller-provided Scratch.
func BuildRootSubScratch(gk *graph.Graph, v graph.V, par Params, _ Options, s *Scratch) (*Sub, uint32) {
	members := NewGate(gk, par, Options{DisableKCore: true}).rootMembers(v, s)
	if len(members) < par.MinSize {
		return nil, 0
	}
	sub := rootList(members, gk.NumVertices(), func(i int) []uint32 { return gk.Adj(members[i]) }, par.K(), s)
	if sub == nil || sub.N() < par.MinSize {
		return nil, 0
	}
	return sub, 0
}
