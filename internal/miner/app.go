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

// wscratch is one worker's reusable task-construction state: an
// epoch-stamped marker over global vertex IDs (the shared
// graph.Scratch core) with one value slot, the row-pointer buffer of
// iteration 2 and the quasiclique.Scratch its induction and its peel
// run on (iteration 3's subtasks come from the miner's matrix). It
// replaces the per-Compute maps (known/pull dedup, global→local index)
// that dominated task-spawn cost. Owned by exactly one worker.
type wscratch struct {
	marks graph.Scratch
	idxA  []uint32            // global → collect-order row index (iterations 1–2)
	rows  [][]graph.V         // iteration-2 row pointers, collect order
	qs    quasiclique.Scratch // iteration-2 induction and peel
	peel  kcore.PeelScratch   // iteration-1 partial-peel buffers
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
	var pulls []graph.V
	for _, u := range adj {
		if u > v && a.live(u) {
			pulls = append(pulls, u)
		}
	}
	// Any quasi-clique whose minimum vertex is v needs ≥ τsize−1
	// members larger than v, all within two hops; with no larger
	// neighbors there is nothing to find.
	if len(pulls) == 0 {
		return nil
	}
	t := gthinker.NewTask(&Payload{Iteration: 1, Root: v})
	t.Pulls = pulls
	return t
}

// Results is every machine's report encoder: it finalizes its workers'
// finds — so unless the job skips the filter, only the sets maximal on
// this machine travel; the coordinator filters the union — and encodes
// them with the machine's emissions (every set a worker appended) and
// per-root rows. Finalize replaces the entries of the outer slice it is
// handed, so it gets a copy of that slice; it never writes into a
// worker's list, which stays as mined.
func (a *app) Results() ([]byte, error) {
	var emitted int64
	for _, f := range a.found {
		emitted += int64(len(f))
	}
	sets := quasiclique.Finalize(slices.Clone(a.found), a.cfg.Options.SkipMaximalityFilter)
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
func (a *app) iteration1(p *Payload, pulls []graph.V, frontier [][]graph.V, ctx *gthinker.Ctx) bool {
	v := p.Root
	n := a.g.NumVertices()
	ws := a.scratches[ctx.WorkerID]

	// t.g over {v} ∪ pulls (lines 3–9). Spawn pulled only live vertices,
	// in ascending order, so the paper's V1 is all of pulls and its V2
	// (pruned 1-hop vertices) is empty. Rows keep the live destinations
	// w ≥ v; those beyond pulls ∪ v are unpulled 2-hop vertices and stay
	// untouched. The rows share one backing array, each capped at its
	// own end; v's row, first, is pulls.
	cells := len(pulls)
	for _, src := range frontier {
		cells += len(src)
	}
	flat := append(make([]graph.V, 0, cells), pulls...)
	p.GVerts = append(make([]graph.V, 0, len(pulls)+1), v)
	p.GVerts = append(p.GVerts, pulls...)
	p.GAdj = make([][]graph.V, 1, len(p.GVerts))
	p.GAdj[0] = flat[:len(pulls):len(pulls)]
	for _, src := range frontier {
		start := len(flat)
		for _, w := range src {
			if w >= v && a.live(w) {
				flat = append(flat, w)
			}
		}
		p.GAdj = append(p.GAdj, flat[start:len(flat):len(flat)])
	}

	// Line 10: t.g ← k-core(t.g), counting unpulled destinations.
	if !a.peelPartial(p, ws) {
		return false // v was peeled (line 11)
	}

	// Lines 12–15: pull all 2-hop vertices (w > v, not already known).
	// One generation marks both the known set (v and the frontier) and
	// each vertex as it is pulled, so the pull set needs no map either.
	ws.begin(n)
	ws.marks.Mark(v)
	for _, u := range pulls {
		ws.marks.Mark(u)
	}
	for _, row := range p.GAdj {
		for _, w := range row {
			if w > v && !ws.marks.Marked(w) {
				ws.marks.Mark(w) // now pulled: dedup further hits
				ctx.Pull(w)
			}
		}
	}
	p.Iteration = 2
	return true
}

// peelPartial shrinks p.GVerts/GAdj to the k-core, treating adjacency
// entries outside GVerts as fixed degree credit. Returns false if the
// root fell out.
func (a *app) peelPartial(p *Payload, ws *wscratch) bool {
	ws.begin(a.g.NumVertices())
	for i, u := range p.GVerts {
		ws.marks.Mark(u)
		ws.idxA[u] = uint32(i)
	}
	// Exact-count pass, then one packed array for the local rows.
	extra := make([]int, len(p.GVerts))
	total := 0
	for i, row := range p.GAdj {
		for _, w := range row {
			if ws.marks.Marked(w) {
				total++
			} else {
				extra[i]++
			}
		}
	}
	flat := make([]uint32, 0, total)
	local := make([][]uint32, len(p.GVerts))
	for i, row := range p.GAdj {
		start := len(flat)
		for _, w := range row {
			if ws.marks.Marked(w) {
				flat = append(flat, ws.idxA[w])
			}
		}
		local[i] = flat[start:len(flat):len(flat)]
	}
	keep := kcore.PeelLocalScratch(local, a.k, extra, &ws.peel)
	if !keep[0] { // root is GVerts[0]
		return false
	}
	verts := p.GVerts[:0]
	adj := p.GAdj[:0]
	for i, ok := range keep {
		if !ok {
			continue
		}
		row := p.GAdj[i][:0]
		for _, w := range p.GAdj[i] {
			if !ws.marks.Marked(w) || keep[ws.idxA[w]] {
				row = append(row, w)
			}
		}
		verts = append(verts, p.GVerts[i])
		adj = append(adj, row)
	}
	p.GVerts, p.GAdj = verts, adj
	return true
}

// iteration2 is Algorithm 7: absorb the pulled 2-hop vertices (all
// live; frontier[i] is the adjacency list of pulls[i]), induce the
// exact subgraph over the final member set, peel to the k-core, and
// set up the mining state.
func (a *app) iteration2(p *Payload, pulls []graph.V, frontier [][]graph.V, ws *wscratch) bool {
	v := p.Root
	ws.begin(a.g.NumVertices())
	// Collect the member set: the peeled partial subgraph plus every
	// pulled 2-hop vertex. idxA remembers each member's row in collect
	// order.
	verts := make([]graph.V, 0, len(p.GVerts)+len(frontier))
	clear(ws.rows) // drop slice headers pinning the previous task's rows
	ws.rows = ws.rows[:0]
	for i, u := range p.GVerts {
		ws.marks.Mark(u)
		ws.idxA[u] = uint32(len(ws.rows))
		verts = append(verts, u)
		ws.rows = append(ws.rows, p.GAdj[i])
	}
	for i, adj := range frontier {
		u := pulls[i]
		if !ws.marks.Marked(u) {
			ws.marks.Mark(u)
			ws.idxA[u] = uint32(len(ws.rows))
			verts = append(verts, u)
			ws.rows = append(ws.rows, adj)
		}
	}
	slices.Sort(verts)

	// Exact induced adjacency over members (destinations outside the
	// member set cannot belong to any valid quasi-clique rooted at v:
	// they are < v, outside G's k-core, or beyond two hops through
	// live vertices). Every row is a graph row or a filtered copy of
	// one (GAdj never leaves this worker: no task record carries it),
	// and a graph holds no self loops (Builder drops them, FromCSR
	// refuses them), so no row yields its own vertex.
	_, adj := quasiclique.Induce(verts, a.g.NumVertices(),
		func(i int) []uint32 { return ws.rows[ws.idxA[verts[i]]] }, 0, 0, &ws.qs)
	sub := &quasiclique.Sub{Label: verts, Adj: adj}

	// Line 9: final k-core peel.
	peeled, _ := sub.PeelKCoreScratch(a.k, &ws.qs)
	if peeled.N() == 0 || peeled.Label[0] != v {
		return false // line 10: v pruned
	}
	p.GVerts, p.GAdj = nil, nil
	p.Sub = peeled
	p.S = []uint32{0} // v is the smallest label
	p.Ext = make([]uint32, 0, peeled.N()-1)
	for i := 1; i < peeled.N(); i++ {
		p.Ext = append(p.Ext, uint32(i))
	}
	p.Iteration = 3
	a.rec.RootStarted(v, peeled.N())
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
		deadline := start.Add(a.cfg.TauTime)
		m.TimedOut = func() bool { return !time.Now().Before(deadline) }
		m.Offload = offload
	}
	m.RecursiveMine(p.S, p.Ext)
	total := time.Since(start)
	a.rec.TaskDone(p.Root, total-mater, mater, subtasks)
	return false
}
