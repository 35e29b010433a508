package gthinker

import (
	"context"
	"errors"
	"slices"
	"strings"
	"testing"

	"gthinkerqc/internal/datagen"
	"gthinkerqc/internal/graph"
)

// --- toy app 3: two-hop pulls (the miner's pull pattern) -----------------

// hopApp gives every root with a neighbour one task, which pulls the
// root's neighbours and then every neighbour of those it has not seen,
// and folds each frontier it is handed — ids and rows, in order — into
// one word per root. Payload is {root, iteration}.
type hopApp struct {
	nilApp
	sums []uint64 // per root; a root is computed by one task at a time
}

func (a *hopApp) Spawn(v graph.V, adj []graph.V, _ *Ctx) *Task {
	if len(adj) == 0 {
		return nil
	}
	t := NewTask([]graph.V{v, 1})
	t.Pulls = slices.Clone(adj)
	return t
}

func (a *hopApp) Compute(t *Task, frontier [][]graph.V, ctx *Ctx) bool {
	p := t.Payload.([]graph.V)
	root := p[0]
	h := a.sums[root]
	for i, row := range frontier {
		h = h*31 + uint64(t.Pulls[i])
		for _, w := range row {
			h = h*1000003 + uint64(w)
		}
	}
	a.sums[root] = h
	if p[1] == 2 {
		return false
	}
	for _, w := range twoHop(root, t.Pulls, func(i int) []graph.V { return frontier[i] }) {
		ctx.Pull(w)
	}
	p[1] = 2
	return true
}

func (hopApp) IsBig(*Task) bool { return false }

// twoHop lists, in first-seen order, the vertices of rows 0..len(adj)-1
// that are neither root nor in adj.
func twoHop(root graph.V, adj []graph.V, row func(i int) []graph.V) []graph.V {
	seen := map[graph.V]bool{root: true}
	for _, u := range adj {
		seen[u] = true
	}
	var out []graph.V
	for i := range adj {
		for _, w := range row(i) {
			if !seen[w] {
				seen[w] = true
				out = append(out, w)
			}
		}
	}
	return out
}

// remoteLookups counts the (task, id) lookups of a whole hopApp job
// whose id another machine owns, and its tasks.
func remoteLookups(g *graph.Graph, machines int) (lookups uint64, tasks int) {
	for v := 0; v < g.NumVertices(); v++ {
		adj := g.Adj(graph.V(v))
		if len(adj) == 0 {
			continue
		}
		tasks++
		home := owner(graph.V(v), machines)
		for _, pulls := range [][]graph.V{adj, twoHop(graph.V(v), adj, func(i int) []graph.V { return g.Adj(adj[i]) })} {
			for _, u := range pulls {
				if owner(u, machines) != home {
					lookups++
				}
			}
		}
	}
	return lookups, tasks
}

// TestResolveBatchRoundTrips pins what batching buys: a machine pays
// one round trip per owner per batch of C tasks and iteration, not one
// per task and iteration; every remote lookup is still answered and
// counted; a row crosses the wire once per machine; and the frontiers
// handed to Compute are those of a one-machine run.
func TestResolveBatchRoundTrips(t *testing.T) {
	g := datagen.ErdosRenyi(6000, 0.001, 11)
	const machines, c = 2, 32
	run := func(machines int) (*hopApp, *Metrics) {
		app := &hopApp{sums: make([]uint64, g.NumVertices())}
		res := mustRunApp(t, g, app, Config{Machines: machines, WorkersPerMachine: 1, BatchSize: c, SpillDir: t.TempDir()})
		return app, res.Metrics
	}
	want, _ := run(1)
	got, met := run(machines)
	if !slices.Equal(got.sums, want.sums) {
		t.Fatal("2-machine frontiers differ from the 1-machine run's")
	}

	lookups, tasks := remoteLookups(g, machines)
	if int(met.TasksSpawned) != tasks {
		t.Fatalf("spawned %d tasks, want %d", met.TasksSpawned, tasks)
	}
	// Per machine: one batch per C tasks popped (rounded up), and at
	// most one pending batch behind each; one owner to ask.
	batches := (tasks+c-1)/c + machines
	if limit := uint64(2 * batches * (machines - 1)); met.BatchedFetches > limit {
		t.Fatalf("%d round trips for %d two-iteration tasks in batches of %d: want at most %d",
			met.BatchedFetches, tasks, c, limit)
	}
	t.Logf("%d tasks: %d round trips (limit %d) for %d rows", tasks, met.BatchedFetches, 2*batches*(machines-1), met.RemoteFetches)
	if met.CacheHits+met.CacheMisses != lookups {
		t.Fatalf("cache answered %d hits + %d misses, want %d remote lookups", met.CacheHits, met.CacheMisses, lookups)
	}
	// One worker per machine and a cache that never fills: a miss is a
	// row's first use on its machine, and only misses are fetched.
	if met.RemoteFetches != met.CacheMisses || met.RemoteFetches > uint64(g.NumVertices()) {
		t.Fatalf("%d rows fetched for %d misses over %d vertices", met.RemoteFetches, met.CacheMisses, g.NumVertices())
	}
}

// resolveFixture is machine 0 of a 3-machine direct cluster, on a job
// that was installed but not started, so a test drives its one worker
// by hand. remote lists vertices machine 0 does not own, by owner.
type resolveFixture struct {
	g      *graph.Graph
	rt     *MachineRuntime
	jb     *jobState
	w      *worker
	remote [3][]graph.V
}

// newResolveFixture builds the fixture; wrap, when not nil, stands
// between machine 0 and its loopback.
func newResolveFixture(t testing.TB, app App, cfg Config, wrap func(*loopback) Transport) *resolveFixture {
	t.Helper()
	g := datagen.ErdosRenyi(400, 0.03, 5)
	cfg.Machines, cfg.WorkersPerMachine, cfg.SpillDir = 3, 1, t.TempDir()
	c, err := newTestCluster(g, cfg, func(m int, lb *loopback) Transport {
		if m == 0 && wrap != nil {
			return wrap(lb)
		}
		return lb
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	f := &resolveFixture{g: g, rt: installJob(t, c.Cluster, app)[0]}
	f.jb, f.w = f.rt.jb(), f.rt.workers[0]
	for v := 0; v < g.NumVertices(); v++ {
		o := owner(graph.V(v), 3)
		f.remote[o] = append(f.remote[o], graph.V(v))
	}
	return f
}

// task builds a live small task pulling ids.
func (f *resolveFixture) task(ids ...graph.V) *Task {
	t := NewTask([]graph.V{0})
	t.Pulls = ids
	f.jb.live.Add(1)
	return t
}

// finish plays compute's part for every ready task: unpin and drop.
func (f *resolveFixture) finish() {
	for t := f.w.popReady(); t != nil; t = f.w.popReady() {
		f.rt.cache.release(t.pinned)
		t.frontier, t.pinned = nil, nil
	}
}

// TestResolveBatchSharedMiss: an id wanted by k tasks of one batch is
// one miss and k-1 hits, crosses the wire once, and every task gets
// the row.
func TestResolveBatchSharedMiss(t *testing.T) {
	f := newResolveFixture(t, nilApp{}, Config{}, nil)
	const k = 5
	x, own := f.remote[1][0], f.rt.verts[0]
	var ts []*Task
	for i := 0; i < k; i++ {
		ts = append(ts, f.task(own, x))
	}
	f.w.resolveBatch(ts)
	hits, misses, _ := f.rt.cache.stats()
	if misses != 1 || hits != k-1 {
		t.Fatalf("one id wanted by %d tasks: %d misses, %d hits", k, misses, hits)
	}
	tr := f.rt.transport.(*loopback)
	if tr.Fetches() != 1 || tr.BatchedFetches() != 1 {
		t.Fatalf("%d rows in %d round trips crossed the wire, want 1 in 1", tr.Fetches(), tr.BatchedFetches())
	}
	if len(f.w.blocal) != k {
		t.Fatalf("%d of %d tasks ready", len(f.w.blocal), k)
	}
	for _, task := range ts {
		if !slices.Equal(task.frontier[0], f.g.Adj(own)) || !slices.Equal(task.frontier[1], f.g.Adj(x)) {
			t.Fatal("frontier is not parallel to Pulls")
		}
	}
	if e := f.rt.cache.rows[f.rt.cache.index[x]]; e.refs != k {
		t.Fatalf("row holds %d pins for %d tasks", e.refs, k)
	}
	f.finish()
	if n := f.rt.cache.pinnedRows(); n != 0 {
		t.Fatalf("%d rows pinned after every task released", n)
	}
}

// orderApp records the payload tag of every task it computes. Tasks
// tagged bigTag and above are big.
type orderApp struct {
	nilApp
	computed []graph.V
}

const bigTag = 1000

func (a *orderApp) Compute(t *Task, _ [][]graph.V, _ *Ctx) bool {
	a.computed = append(a.computed, t.Payload.([]graph.V)[0])
	return false
}

func (a *orderApp) IsBig(t *Task) bool { return t.Payload.([]graph.V)[0] >= bigTag }

// TestResolveBatchKeepsBglobalFirst guards the reforge's priority
// across the batch: resolving computes nothing, pull-less tasks
// included, and a big task that becomes ready while the worker holds a
// resolved batch of C small ones is the next thing it computes.
func TestResolveBatchKeepsBglobalFirst(t *testing.T) {
	app := &orderApp{}
	const c = 8
	f := newResolveFixture(t, app, Config{BatchSize: c, QueueCap: 64}, nil)
	tagged := func(tag int, ids ...graph.V) *Task {
		task := f.task(ids...)
		task.Payload = []graph.V{graph.V(tag)}
		return task
	}
	pulling := func(tag int) *Task {
		return tagged(tag, f.rt.verts[0], f.remote[1][tag], f.remote[2][tag])
	}

	// A batch with pull-less tasks in it: all of it ready, none computed.
	f.w.resolveBatch([]*Task{pulling(100), tagged(101), pulling(102), tagged(103)})
	if len(app.computed) != 0 || len(f.w.blocal) != 4 {
		t.Fatalf("resolveBatch computed %v and readied %d of 4 tasks", app.computed, len(f.w.blocal))
	}
	for f.w.step(f.jb) {
	}

	for i := 0; i < 2*c; i++ {
		f.w.qlocal.pushBack(pulling(i))
	}
	app.computed = nil
	if !f.w.step(f.jb) {
		t.Fatal("step found no work with 2C tasks queued")
	}
	if len(app.computed) != 0 {
		t.Fatalf("the pop phase computed tasks %v", app.computed)
	}
	if len(f.w.blocal) != c || f.w.qlocal.len() != c {
		t.Fatalf("one pop took %d tasks and left %d, want C = %d of 2C", len(f.w.blocal), f.w.qlocal.len(), c)
	}
	f.w.step(f.jb) // the batch's first task
	f.jb.pushReady(tagged(bigTag))
	for f.w.step(f.jb) {
	}
	want := []graph.V{0, bigTag}
	for i := 1; i < 2*c; i++ {
		want = append(want, graph.V(i))
	}
	if !slices.Equal(app.computed, want) {
		t.Fatalf("compute order %v, want the big task right after the one in flight: %v", app.computed, want)
	}
	if n := f.rt.cache.pinnedRows(); n != 0 {
		t.Fatalf("%d rows pinned after the queue drained", n)
	}
	if live := f.jb.live.Load(); live != 0 {
		t.Fatalf("%d tasks still counted alive", live)
	}
}

// TestPopEndsBatchAtPullLessTask: a task with nothing to pull is the
// last of the batch it is popped in, so a stream of pull-less subtasks
// is popped — and Qglobal looked at — one task at a time, as before
// batching.
func TestPopEndsBatchAtPullLessTask(t *testing.T) {
	f := newResolveFixture(t, &orderApp{}, Config{BatchSize: 8, QueueCap: 64}, nil)
	own := f.rt.verts[0]
	for _, task := range []*Task{f.task(own), f.task(own), f.task(), f.task(), f.task(own)} {
		f.w.qlocal.pushBack(task)
	}
	for _, want := range []int{3, 1, 1} {
		f.w.step(f.jb) // pop and resolve
		if len(f.w.blocal) != want {
			t.Fatalf("popped a batch of %d, want %d", len(f.w.blocal), want)
		}
		for i := 0; i < want; i++ {
			f.w.step(f.jb) // compute
		}
	}
}

// secondOwnerFails answers the first owner a batch asks and breaks on
// the next one: with an error, or with one list too few.
type secondOwnerFails struct {
	*loopback
	short bool
	first int // the owner answered; -1 until a batch asks
}

var errSecondOwner = errors.New("synthetic failure at the batch's second owner")

func (tr *secondOwnerFails) FetchAdjBatch(own int, ids []graph.V, dst [][]graph.V) ([][]graph.V, error) {
	if tr.first < 0 {
		tr.first = own
	}
	if own == tr.first {
		return tr.loopback.FetchAdjBatch(own, ids, dst)
	}
	if !tr.short {
		return nil, errSecondOwner
	}
	dst, err := tr.loopback.FetchAdjBatch(own, ids, dst)
	return dst[:len(dst)-1], err
}

// TestResolveBatchFailureLeavesNoPins: a fetch that fails at a
// batch's second owner fails the job with that error, drops every task
// of the batch, and leaves no row pinned — neither the hits acquire
// pinned before the fetch nor anything the first owner sent.
func TestResolveBatchFailureLeavesNoPins(t *testing.T) {
	for _, short := range []bool{false, true} {
		name := map[bool]string{false: "error", true: "short-reply"}[short]
		t.Run(name, func(t *testing.T) {
			var tr *secondOwnerFails
			f := newResolveFixture(t, nilApp{}, Config{}, func(lb *loopback) Transport {
				tr = &secondOwnerFails{loopback: lb, short: short}
				return tr
			})
			// Warm two rows, so the failing batch holds hits as well.
			warm := []graph.V{f.remote[1][0], f.remote[2][0]}
			tr.first = 1
			f.w.resolveBatch([]*Task{f.task(warm[0])})
			tr.first = 2
			f.w.resolveBatch([]*Task{f.task(warm[1])})
			f.finish()
			if f.rt.Err() != nil || f.rt.cache.pinnedRows() != 0 || len(f.rt.cache.index) != 2 {
				t.Fatalf("warm-up: err %v, %d pinned of %d rows", f.rt.Err(), f.rt.cache.pinnedRows(), len(f.rt.cache.index))
			}

			tr.first = -1
			own := f.rt.verts[0]
			f.w.resolveBatch([]*Task{
				f.task(warm[0], f.remote[1][1], own),
				f.task(f.remote[2][1], warm[1], f.remote[1][1]),
				f.task(), // pull-less: dropped with its batch
			})
			err := f.rt.Err()
			switch {
			case err == nil:
				t.Fatal("the job did not fail")
			case short && !strings.Contains(err.Error(), "returned 0 adjacency lists for 1 ids"):
				t.Fatalf("err = %v, want the short reply named", err)
			case !short && !errors.Is(err, errSecondOwner):
				t.Fatalf("err = %v, want the transport's", err)
			}
			if len(f.w.blocal) != 0 {
				t.Fatalf("%d tasks of the failed batch reached the ready buffer", len(f.w.blocal))
			}
			if n := f.rt.cache.pinnedRows(); n != 0 {
				t.Fatalf("%d rows left pinned by the failed batch", n)
			}
			if n := len(f.rt.cache.index); n != 2 {
				t.Fatalf("the failed batch left %d rows cached, want the 2 warm ones", n)
			}
		})
	}
}

// TestEngineTransportFailureMidBatch is the same failure through a
// whole job: RunJob returns the transport's error and the machine that
// hit it ends with nothing pinned.
func TestEngineTransportFailureMidBatch(t *testing.T) {
	g := datagen.ErdosRenyi(300, 0.05, 7)
	c, err := newTestCluster(g, Config{Machines: 3, WorkersPerMachine: 1, SpillDir: t.TempDir()},
		func(_ int, lb *loopback) Transport {
			return &secondOwnerFails{loopback: lb, first: -1}
		})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.run(context.Background(), &hopApp{sums: make([]uint64, g.NumVertices())})
	if err == nil || !strings.Contains(err.Error(), errSecondOwner.Error()) {
		t.Fatalf("RunJob err = %v, want the transport's failure", err)
	}
	// A machine the coordinator merely stopped may hold resolved tasks,
	// pinned until the next job; one that failed resolving holds none.
	failed := 0
	for _, h := range c.hosts {
		rt := h.Runtime()
		if rt.Err() == nil {
			continue
		}
		failed++
		if n := rt.cache.pinnedRows(); n != 0 {
			t.Fatalf("machine %d: %d rows pinned after its batch failed", rt.ID(), n)
		}
	}
	if failed == 0 {
		t.Fatal("no machine recorded the failure")
	}
}

// warmBatch builds c tasks of 8 remote pulls each on machine 0 and
// resolves them once, so every row is cached and the worker's scratch
// has grown; cycle then resolves and releases the batch again.
func warmBatch(tb testing.TB, c int) (cycle func()) {
	f := newResolveFixture(tb, nilApp{}, Config{BatchSize: c, QueueCap: 2 * c}, nil)
	pool := append(slices.Clone(f.remote[1]), f.remote[2]...)
	ts := make([]*Task, c)
	for i := range ts {
		ts[i] = f.task()
		for j := 0; j < 8; j++ {
			ts[i].Pulls = append(ts[i].Pulls, pool[(i*5+j)%len(pool)])
		}
	}
	cycle = func() {
		f.w.resolveBatch(ts)
		f.finish()
	}
	cycle()
	return cycle
}

// TestResolveBatchAllocations: a warm batch resolve allocates what its
// tasks keep — one frontier and one pin list for the lot — however
// many tasks and pulls the batch holds.
func TestResolveBatchAllocations(t *testing.T) {
	small := testing.AllocsPerRun(50, warmBatch(t, 4))
	large := testing.AllocsPerRun(50, warmBatch(t, 64))
	if small != large || large > 2 {
		t.Fatalf("warm resolve allocates %.1f times for 4 tasks and %.1f for 64, want the same and at most 2", small, large)
	}
}

func BenchmarkResolveBatch(b *testing.B) {
	cycle := warmBatch(b, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
}
