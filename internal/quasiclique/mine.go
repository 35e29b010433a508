package quasiclique

import (
	"context"

	"gthinkerqc/internal/graph"
	"gthinkerqc/internal/kcore"
	"gthinkerqc/internal/vset"
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
	// included, before deduplication and the maximality filter (the
	// same count miner.Result.Candidates carries for parallel runs).
	Candidates int64
	// Results is the final result count.
	Results int
}

// Collector accumulates emitted candidates with deduplication. Dedup
// keys are 64-bit fingerprints of the sorted vertex set; the rare
// colliding fingerprints fall back to comparing the actual sets in a
// collision bucket, so adding a duplicate allocates nothing (the old
// map[string]bool built a 4·|S|-byte string key per Add). It is not
// safe for concurrent use; the parallel engine gives each worker its
// own collector and hands their sets to Finalize.
type Collector struct {
	seen    map[uint64][]uint32 // fingerprint → indices into sets
	sets    [][]graph.V
	emitted int64
}

// NewCollector returns an empty Collector.
func NewCollector() *Collector {
	return &Collector{seen: make(map[uint64][]uint32)}
}

// fingerprintSet hashes a sorted vertex set (FNV-1a over 32-bit
// words). Collisions are handled by the caller, so quality only
// affects bucket sizes, never correctness.
func fingerprintSet(S []graph.V) uint64 {
	h := uint64(1469598103934665603)
	for _, v := range S {
		h ^= uint64(v)
		h *= 1099511628211
	}
	return h
}

// Add records the sorted vertex set S if it has not been seen.
func (c *Collector) Add(S []graph.V) {
	c.emitted++
	fp := fingerprintSet(S)
	for _, i := range c.seen[fp] {
		if vset.Equal(c.sets[i], S) {
			return
		}
	}
	c.seen[fp] = append(c.seen[fp], uint32(len(c.sets)))
	c.sets = append(c.sets, S)
}

// Sets returns the collected sets (shared storage).
func (c *Collector) Sets() [][]graph.V { return c.sets }

// Emitted returns the number of Add calls, repeats included.
func (c *Collector) Emitted() int64 { return c.emitted }

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
	col := NewCollector()
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
	m.Emit = func(locals []uint32) { col.Add(m.Sub.Labels(locals)) }
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
	results := Finalize([][][]graph.V{col.Sets()}, opt.SkipMaximalityFilter)
	stats.Results = len(results)
	return results, stats, ctxErr
}

// PrepareGraph applies the global k-core preprocessing and returns the
// shrunk graph (same vertex universe, edges only among survivors) plus
// the sorted list of surviving vertices.
func PrepareGraph(g *graph.Graph, par Params, opt Options) (*graph.Graph, []graph.V) {
	n := g.NumVertices()
	if opt.DisableKCore {
		all := make([]graph.V, n)
		for i := range all {
			all[i] = graph.V(i)
		}
		return g, all
	}
	keep := kcore.KCoreMask(g, par.K())
	b := graph.NewBuilder(n)
	var kept []graph.V
	for v := 0; v < n; v++ {
		if !keep[v] {
			continue
		}
		kept = append(kept, graph.V(v))
		for _, u := range g.Adj(graph.V(v)) {
			if u > graph.V(v) && keep[u] {
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
// task is pruned outright (candidate set below the size threshold, or
// v peeled out of the core). The second return value is v's local
// index.
func BuildRootSub(gk *graph.Graph, v graph.V, par Params, opt Options) (*Sub, uint32) {
	var s Scratch
	return BuildRootSubScratch(gk, v, par, opt, &s)
}

// BuildRootSubScratch is BuildRootSub with a caller-provided Scratch:
// the two-hop scan, candidate filtering, and subgraph induction all
// run on reusable per-worker buffers instead of per-call maps.
func BuildRootSubScratch(gk *graph.Graph, v graph.V, par Params, opt Options, s *Scratch) (*Sub, uint32) {
	k := par.K()
	if !opt.DisableKCore && gk.Degree(v) < k {
		return nil, 0
	}
	s.cand = gk.Within2Scratch(v, s.cand[:0], &s.marks)
	cand := vset.FilterGreater(s.cand[:0], s.cand, v)
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
