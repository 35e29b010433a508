package miner

import (
	"slices"
	"time"

	"gthinkerqc/internal/graph"
	"gthinkerqc/internal/gthinker"
	"gthinkerqc/internal/kcore"
	"gthinkerqc/internal/metrics"
	"gthinkerqc/internal/quasiclique"
)

// wscratch is one worker's reusable task-construction state, so that a
// warm worker allocates only what a root keeps: an epoch-stamped marker
// over global vertex IDs (the shared graph.Scratch core) with one value
// slot, the rows and degree credit iteration 1's partial peel runs on,
// iteration 2's member set and row pointers, and the
// quasiclique.Scratch RootSub builds and peels the root's matrix in
// (iteration 3's subtasks come from the miner's matrix). It replaces
// the per-Compute maps (known/pull dedup, global→local index) and the
// per-root temporaries that dominated task-spawn cost. Owned by
// exactly one worker.
type wscratch struct {
	marks graph.Scratch
	idxA  []uint32 // global → member index, valid when marked

	flat  []graph.V  // iteration 1: the live rows over global IDs, packed
	bound []int      // iteration 1: row i is flat[bound[i]:bound[i+1]]
	local []uint32   // iteration 1: the rows' member entries as member indices
	lrows [][]uint32 // iteration 1: row i of local, what the peel reads
	extra []int      // iteration 1: per member, its entries not yet pulled
	peel  kcore.PeelScratch
	verts []graph.V   // iteration 1's kept members; iteration 2's member set
	rows  [][]graph.V // iteration 2: member rows in collect order
	qs    quasiclique.Scratch
}

// begin starts a new mark generation over n vertices. Marks from
// older generations become invisible.
func (ws *wscratch) begin(n int) {
	ws.marks.Begin(n)
	if len(ws.idxA) < n {
		ws.idxA = make([]uint32, n)
	}
}

// app implements gthinker.App for quasi-clique mining. Each machine
// builds its own app for each job, so the per-worker slices hold one
// entry per worker of that machine.
type app struct {
	g    *graph.Graph
	cfg  Config
	k    int      // ⌈γ(τsize−1)⌉
	core []uint32 // g.CoreNumbers(); nil under Options.DisableKCore

	found     [][][]graph.V        // one list of emitted sets per worker
	scratches []*wscratch          // one per worker
	miners    []*quasiclique.Miner // one per worker, Reset per task
	rec       *metrics.Recorder
}

func newApp(g *graph.Graph, cfg Config, workers int) *app {
	a := &app{g: g, cfg: cfg, k: cfg.Params.K(), rec: metrics.NewRecorder()}
	if !cfg.Options.DisableKCore {
		a.core = g.CoreNumbers()
	}
	a.found = make([][][]graph.V, workers)
	a.scratches = make([]*wscratch, workers)
	a.miners = make([]*quasiclique.Miner, workers)
	for i := range a.found {
		found := &a.found[i] // bound here: under go 1.21 every closure would share i
		a.scratches[i] = &wscratch{}
		m := quasiclique.NewPooledMiner(cfg.Params, cfg.Options)
		m.Emit = func(locals []uint32) { *found = append(*found, m.Sub.Labels(locals)) }
		a.miners[i] = m
	}
	return a
}

// live reports whether u can belong to a result: it lies in G's
// k-core (T1, Theorem 2 applied to the whole graph), or, with
// Options.DisableKCore, it has degree ≥ k (Theorem 2 alone). It is the
// one membership test of root spawning and of both pull rounds.
func (a *app) live(u graph.V) bool {
	if a.core == nil {
		return a.g.Degree(u) >= a.k
	}
	return int(a.core[u]) >= a.k
}

// Spawn is Algorithm 4 inside G's k-core: one task per live vertex v,
// pulling the adjacency lists of v's live larger neighbors — in
// ascending order, which iteration1 relies on. Every member of a
// result is live, and reaches its minimum vertex within two hops
// through other members, so nothing outside the core is spawned or
// pulled.
func (a *app) Spawn(v graph.V, adj []graph.V, _ *gthinker.Ctx) *gthinker.Task {
	if !a.live(v) {
		return nil
	}
	// adj is sorted and holds no v, so v's insertion point starts the
	// larger neighbours; one count sizes pulls exactly.
	i, _ := slices.BinarySearch(adj, v)
	larger := adj[i:]
	n := 0
	for _, u := range larger {
		if a.live(u) {
			n++
		}
	}
	// Any quasi-clique whose minimum vertex is v needs ≥ τsize−1
	// members larger than v, all within two hops; with no larger
	// neighbors there is nothing to find.
	if n == 0 {
		return nil
	}
	pulls := make([]graph.V, 0, n)
	for _, u := range larger {
		if a.live(u) {
			pulls = append(pulls, u)
		}
	}
	t := gthinker.NewTask(&Payload{Iteration: 1, Root: v})
	t.Pulls = pulls
	return t
}

// Results is every machine's report encoder: it finalizes its workers'
// finds — so unless the job skips the filter, only the sets maximal on
// this machine travel; the coordinator filters the union — and encodes
// them with the machine's emissions (every set a worker appended) and
// per-root rows. Finalize only reads the workers' lists, which stay as
// mined.
func (a *app) Results() ([]byte, error) {
	var emitted int64
	for _, f := range a.found {
		emitted += int64(len(f))
	}
	sets := quasiclique.Finalize(a.found, a.cfg.Options.SkipMaximalityFilter)
	return AppendResults(nil, sets, emitted, a.rec.PerRoot()), nil
}

// IsBig classifies tasks by (estimated) |ext(S)| against τsplit.
func (a *app) IsBig(t *gthinker.Task) bool {
	p := t.Payload.(*Payload)
	return p.extSize(len(t.Pulls)) > a.cfg.TauSplit
}

// Compute dispatches on the task iteration (Algorithm 5).
func (a *app) Compute(t *gthinker.Task, frontier [][]graph.V, ctx *gthinker.Ctx) bool {
	p := t.Payload.(*Payload)
	switch p.Iteration {
	case 1:
		return a.iteration1(p, t.Pulls, frontier, ctx)
	case 2:
		return a.iteration2(p, t.Pulls, frontier, a.scratches[ctx.WorkerID])
	default:
		return a.iteration3(p, ctx)
	}
}

// iteration1 is Algorithm 6: absorb the pulled 1-hop neighborhood
// (frontier[i] is the adjacency list of pulls[i]), keep its live
// entries, peel the partial subgraph to its k-core counting unpulled
// 2-hop destinations toward degrees, and pull those 2-hop vertices.
// The peel runs on worker scratch; the root keeps only the survivors
// and their rows, in one allocation (Payload.Partial).
func (a *app) iteration1(p *Payload, pulls []graph.V, frontier [][]graph.V, ctx *gthinker.Ctx) bool {
	v := p.Root
	ws := a.scratches[ctx.WorkerID]

	// t.g over {v} ∪ pulls (lines 3–9): member 0 is v, member i+1 is
	// pulls[i]. Spawn pulled only live vertices, in ascending order, so
	// the paper's V1 is all of pulls and its V2 (pruned 1-hop vertices)
	// is empty. Rows keep the live destinations w ≥ v; those beyond
	// pulls ∪ v are unpulled 2-hop vertices, which the peel counts as
	// degree credit and never removes. v's row is pulls. One generation
	// marks the members here and, below, each 2-hop vertex as it is
	// pulled, so neither needs a map.
	ws.begin(a.g.NumVertices())
	ws.marks.Mark(v)
	ws.idxA[v] = 0
	for i, u := range pulls {
		ws.marks.Mark(u)
		ws.idxA[u] = uint32(i + 1)
	}
	m := len(pulls) + 1
	ws.flat = append(ws.flat[:0], pulls...)
	ws.bound = append(ws.bound[:0], 0, len(pulls))
	ws.local = ws.local[:0]
	for i := range pulls {
		ws.local = append(ws.local, uint32(i+1))
	}
	if cap(ws.extra) < m {
		ws.extra = make([]int, m)
	}
	ws.extra = ws.extra[:m]
	ws.extra[0] = 0
	for i, src := range frontier {
		extra := 0
		for _, w := range src {
			if w < v || !a.live(w) {
				continue
			}
			ws.flat = append(ws.flat, w)
			if ws.marks.Marked(w) {
				ws.local = append(ws.local, ws.idxA[w])
			} else {
				extra++
			}
		}
		ws.extra[i+1] = extra
		ws.bound = append(ws.bound, len(ws.flat))
	}
	// Row i has bound[i+1]−bound[i] live entries, extra[i] of them not
	// members, so local holds the rest, row after row.
	ws.lrows = ws.lrows[:0]
	start := 0
	for i := 0; i < m; i++ {
		end := start + ws.bound[i+1] - ws.bound[i] - ws.extra[i]
		ws.lrows = append(ws.lrows, ws.local[start:end:end])
		start = end
	}

	// Line 10: t.g ← k-core(t.g), counting unpulled destinations.
	keep := kcore.PeelLocalScratch(ws.lrows, a.k, ws.extra, &ws.peel)
	if !keep[0] {
		return false // v was peeled (line 11)
	}
	// Drop the peeled members and their entries: flat and bound are
	// compacted in place (a kept row never starts past its old start),
	// then copied into the root's one buffer.
	kept := ws.verts[:0]
	cells := 0
	for i, ok := range keep {
		row := ws.flat[ws.bound[i]:ws.bound[i+1]]
		if !ok {
			continue
		}
		ws.bound[len(kept)] = cells
		if i == 0 {
			kept = append(kept, v)
		} else {
			kept = append(kept, pulls[i-1])
		}
		for _, w := range row {
			if !ws.marks.Marked(w) || keep[ws.idxA[w]] {
				ws.flat[cells] = w
				cells++
			}
		}
	}
	ws.verts = kept
	km := len(kept)
	ws.bound[km] = cells
	h := makePartial(km, cells)
	copy(h.members(), kept)
	base := 2 + 2*km
	for i, b := range ws.bound[:km+1] {
		h.bounds()[i] = graph.V(base + b)
	}
	copy(h[base:], ws.flat[:cells])
	p.Partial = h

	// Lines 12–15: pull all 2-hop vertices (w > v, not already known),
	// marking each as it is pulled, so the pull set needs no map either.
	for _, w := range h[base:] {
		if w > v && !ws.marks.Marked(w) {
			ws.marks.Mark(w)
			ctx.Pull(w)
		}
	}
	p.Iteration = 2
	return true
}

// iteration2 is Algorithm 7: absorb the pulled 2-hop vertices (all
// live; frontier[i] is the adjacency list of pulls[i]), then build the
// root over the final member set with quasiclique.RootSub: the exact
// induced subgraph, peeled to the k-core, with S = {v} and the rest in
// ext(S).
func (a *app) iteration2(p *Payload, pulls []graph.V, frontier [][]graph.V, ws *wscratch) bool {
	v := p.Root
	part := p.Partial
	p.Partial = nil
	// Collect the member set: the peeled partial subgraph plus every
	// pulled 2-hop vertex. idxA remembers each member's row in collect
	// order.
	ws.begin(a.g.NumVertices())
	verts, rows := ws.verts[:0], ws.rows[:0]
	for i, u := range part.members() {
		ws.marks.Mark(u)
		ws.idxA[u] = uint32(len(rows))
		verts = append(verts, u)
		rows = append(rows, part.row(i))
	}
	for i, adj := range frontier {
		u := pulls[i]
		if !ws.marks.Marked(u) {
			ws.marks.Mark(u)
			ws.idxA[u] = uint32(len(rows))
			verts = append(verts, u)
			rows = append(rows, adj)
		}
	}
	slices.Sort(verts)

	// Exact induced adjacency over members (destinations outside the
	// member set cannot belong to any valid quasi-clique rooted at v:
	// they are < v, outside G's k-core, or beyond two hops through
	// live vertices), peeled to the k-core (line 9). Every row is a
	// graph row or a filtered copy of one, and a graph holds no self
	// loops (Builder drops them, FromCSR refuses them), so no row
	// yields its own vertex.
	idx := ws.idxA
	sub, S, ext := quasiclique.RootSub(verts, a.g.NumVertices(),
		func(i int) []uint32 { return rows[idx[verts[i]]] }, a.k, &ws.qs)
	clear(rows) // drop the row headers pinning this task's frontier
	ws.verts, ws.rows = verts, rows[:0]
	if sub == nil {
		return false // line 10: v pruned
	}
	p.Sub, p.S, p.Ext = sub, S, ext
	p.Iteration = 3
	a.rec.RootStarted(v, sub.N())
	return true // no pulls: engine runs iteration 3 immediately
}

// iteration3 mines the task subgraph (Algorithms 8–10). It returns
// false: a task always completes in this iteration, possibly after
// decomposing its remaining workload into subtasks.
func (a *app) iteration3(p *Payload, ctx *gthinker.Ctx) bool {
	sub := p.Sub
	if sub == nil || len(p.S)+len(p.Ext) < a.cfg.Params.MinSize {
		return false
	}
	m := a.miners[ctx.WorkerID]
	m.Reset(sub)
	m.Abort = ctx.Aborted

	var mater time.Duration
	subtasks := 0
	// S and ext index the Sub the miner is bound to, which a split of
	// an oversized task rebinds to each child; Subtask compacts the
	// child from that Sub's matrix.
	offload := func(S, ext []uint32) {
		t0 := time.Now()
		child, s2, e2 := m.Subtask(S, ext)
		nt := gthinker.NewTask(&Payload{
			Iteration: 3, Root: p.Root, Sub: child, S: s2, Ext: e2,
		})
		mater += time.Since(t0)
		subtasks++
		ctx.AddTask(nt)
	}

	start := time.Now()
	// The pooled miner keeps callbacks across Resets, so both branches
	// assign TimedOut/Offload explicitly (nil clears a previous task's).
	m.TimedOut, m.Offload = nil, nil
	switch a.cfg.Strategy {
	case SizeThreshold:
		// Algorithm 8: decompose the top level whenever the task is
		// still above τsplit; subtasks re-evaluate on their own.
		if len(p.Ext) > a.cfg.TauSplit {
			m.TimedOut = func() bool { return true }
			m.Offload = offload
		}
	default: // TimeDelayed, Algorithm 10
		// The miner asks once per descend; the clock is read on the
		// first call and every 64th after it, and the answer latches
		// once the deadline has passed. An offload so comes at most 63
		// node expansions late (tens of µs against τtime), and which
		// subtrees become subtasks never changes the results.
		deadline := start.Add(a.cfg.TauTime)
		polls, late := 0, false
		m.TimedOut = func() bool {
			if !late && polls%64 == 0 {
				late = !time.Now().Before(deadline)
			}
			polls++
			return late
		}
		m.Offload = offload
	}
	m.RecursiveMine(p.S, p.Ext)
	total := time.Since(start)
	a.rec.TaskDone(p.Root, total-mater, mater, subtasks)
	return false
}
