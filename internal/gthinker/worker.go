package gthinker

import (
	"fmt"
	"slices"
	"time"

	"gthinkerqc/internal/graph"
	"gthinkerqc/internal/obs"
)

// worker is one mining thread with its own small-task queue, spill
// list, and ready buffer.
type worker struct {
	rt *MachineRuntime

	qlocal deque
	lsmall *spillList
	ctx    Ctx

	// blocal is the ready buffer of small tasks: the batch resolveBatch
	// resolved last, computed front to back from bnext. Only this worker
	// touches it, and it is refilled only once it has drained.
	blocal []*Task
	bnext  int
	// pending holds the tasks whose last Compute asked for pulls. They
	// are resolved as one batch once blocal has drained and before new
	// tasks are popped, so started tasks finish first.
	pending []*Task
	// batch is the pop phase's hand-over to resolveBatch: up to C tasks
	// off qlocal, or one big task off Qglobal.
	batch []*Task

	rs resolveScratch

	// tracer/track alias rt.tracer and this worker's ring; nil tracer
	// (tracing off) short-circuits every Record to one branch.
	tracer *obs.Tracer
	track  int

	// busy is the accumulated Compute time. It stays a plain field —
	// only read after Stop — where the call counters moved to job
	// atomics so status polls can sample them live.
	busy time.Duration
}

// resolveScratch is what resolveBatch reuses from one batch to the
// next, so a warm resolve allocates only what its tasks keep (the
// frontier and the pin lists).
type resolveScratch struct {
	at      []int32     // frontier slot of each remote lookup, parallel to the batch's pin list
	missing []int32     // positions, in the pin list, of the lookups the cache missed
	keys    []uint64    // owner<<32|id of each missed lookup, parallel to missing
	want    []uint64    // keys, sorted and deduplicated: what crosses the wire, grouped by owner
	ids     []graph.V   // the ids of want; an owner's request is a window of it
	refs    []int32     // lookups per member of want
	adjs    [][]graph.V // FetchAdjBatch's destination, parallel to want
}

// resetJob clears the worker's per-job half — queues, spill list,
// busy time, tracer alias — keeping the warm per-process half (the
// resolve scratch, and whatever the app pools per worker). Only called
// between jobs, when the worker goroutine has exited.
func (w *worker) resetJob(jb *jobState) {
	w.qlocal = deque{}
	w.blocal, w.bnext = dropTasks(w.blocal), 0
	w.pending = dropTasks(w.pending)
	w.lsmall = newSpillList(w.lsmall.dir, w.lsmall.name, w.lsmall.acct, jb.app, w.lsmall.nv)
	w.busy = 0
	w.tracer = jb.tracer
}

// dropTasks empties ts for reuse without keeping its tasks reachable.
func dropTasks(ts []*Task) []*Task {
	clear(ts)
	return ts[:0]
}

// addLocal enqueues a small task on this worker, spilling on overflow.
func (w *worker) addLocal(t *Task) {
	w.qlocal.pushBack(t)
	w.rt.jb().smallTasks.Add(1)
	if w.qlocal.len() > w.rt.cfg.QueueCap {
		w.spill(w.lsmall, w.qlocal.popBackBatch(w.rt.cfg.BatchSize))
	}
}

// addGlobal enqueues a big task on the machine-wide queue, spilling on
// overflow.
func (w *worker) addGlobal(t *Task) {
	jb := w.rt.jb()
	jb.pushGlobal(t)
	jb.bigTasks.Add(1)
	if jb.qglobal.len() > w.rt.cfg.QueueCap {
		w.spill(jb.lbig, jb.qglobal.popBackBatch(w.rt.cfg.BatchSize))
	}
}

// spill writes the tail batch of an overflowing queue to its list
// (Qlocal to Lsmall, Qglobal to Lbig) and records the spill on this
// worker's track. A failed write fails the job.
func (w *worker) spill(l *spillList, batch []*Task) {
	var start time.Time
	if w.tracer != nil {
		start = time.Now()
	}
	if err := l.spill(batch); err != nil {
		w.rt.fail(err)
	}
	if w.tracer != nil {
		w.tracer.Record(w.track, obs.KindSpill, start, time.Since(start), uint64(len(batch)), 0)
	}
}

// route sends a task created during Compute to the right queue
// (reforge: big tasks to the machine-wide global queue).
func (w *worker) route(t *Task) {
	if w.rt.isBig(t) {
		w.addGlobal(t)
	} else {
		w.addLocal(t)
	}
}

// run is the mining-thread main loop, the reforged Algorithm 3:
//
//	push: compute a ready big task (Bglobal) first, else a ready
//	      small task (Blocal); once Blocal has drained, resolve the
//	      tasks those computes left waiting on pulls, as one batch;
//	pop:  try the global queue (refilled from Lbig when low; a failed
//	      try-lock falls through), else the local queue (refilled from
//	      Lsmall, then by the spawn scan — which stops at the first big
//	      task), up to C tasks at a time, and resolve what was popped.
//
// A step that finds nothing parks the worker until shared work shows
// up or the job ends; it never spins and never sleeps on a timer.
func (w *worker) run() {
	jb := w.rt.jb()
	for !jb.doneFlag.Load() {
		if !w.step(jb) {
			w.park(jb)
		}
	}
}

// park blocks until another goroutine makes work visible to this
// worker or the job ends. step returned false, so everything the
// worker owns (Qlocal, Lsmall, Blocal, the pending list) is empty and
// only the shared sources can feed it: Bglobal, Qglobal backed by Lbig,
// the spawn cursor, the adopted list. The worker registers as a sleeper BEFORE
// looking at them one last time — with blocking reads, not the
// try-lock step uses — so a producer that published just before the
// look is seen by it, and one that publishes after sees the sleeper
// and sends a token (jobState.wake). A token can outlive the work it
// announced (another worker took it); the woken worker then finds
// nothing and parks again.
func (w *worker) park(jb *jobState) {
	jb.sleepers.Add(1)
	defer jb.sleepers.Add(-1)
	if jb.bglobal.len() > 0 || w.rt.bigPending() > 0 || !w.rt.allSpawned(jb) {
		return
	}
	select {
	case <-jb.wakeCh:
	case <-jb.doneCh:
	}
}

// step performs one scheduling action; false means no work was found.
// Compute is one task per step, so the Bglobal-first check runs
// between any two computes; resolving never computes.
func (w *worker) step(jb *jobState) bool {
	// Push phase: big ready tasks are prioritized across the machine.
	if t := jb.bglobal.pop(); t != nil {
		w.compute(t)
		return true
	}
	if t := w.popReady(); t != nil {
		w.compute(t)
		return true
	}
	// Blocal has drained: the started tasks waiting on pulls go next.
	if len(w.pending) > 0 {
		w.resolveBatch(w.pending)
		w.pending = dropTasks(w.pending)
		return true
	}
	// Pop phase.
	spawned := false
	if t := w.popGlobal(jb); t != nil {
		w.batch = append(w.batch, t)
	} else {
		spawned = w.popLocal()
	}
	if len(w.batch) > 0 {
		w.resolveBatch(w.batch)
		w.batch = dropTasks(w.batch)
		return true
	}
	// A scan whose only task was big queued it globally: progress, and
	// the next step pops it.
	return spawned
}

// popReady takes the next task of the resolved batch off Blocal.
func (w *worker) popReady() *Task {
	if w.bnext == len(w.blocal) {
		return nil
	}
	t := w.blocal[w.bnext]
	w.blocal[w.bnext] = nil
	w.bnext++
	if w.bnext == len(w.blocal) {
		w.blocal, w.bnext = w.blocal[:0], 0
	}
	return t
}

// popGlobal implements the second reforge change: always try the
// machine's big-task queue first, refilling it from Lbig when it runs
// low; a try-lock failure (another thread holds it) falls back to the
// local path immediately instead of blocking.
func (w *worker) popGlobal(jb *jobState) *Task {
	if jb.qglobal.len() < w.rt.cfg.BatchSize {
		var start time.Time
		if w.tracer != nil {
			start = time.Now()
		}
		if batch, ok, err := jb.lbig.refill(); err != nil {
			jb.fail(err)
		} else if ok {
			// Between refill taking the file off Lbig and this push the
			// batch is in neither place; a worker that parked in that
			// window is woken here.
			jb.pushGlobal(batch...)
			w.tracer.Record(w.track, obs.KindRefill, start, time.Since(start), uint64(len(batch)), 0)
		}
	}
	t, _ := jb.qglobal.tryPopFront()
	return t
}

// popLocal moves the next batch — up to C tasks — from the worker's
// own queue into w.batch, refilling the queue first when it runs low:
// from Lsmall, else by the spawn scan. spawned reports that the scan
// queued at least one task somewhere.
func (w *worker) popLocal() (spawned bool) {
	c := w.rt.cfg.BatchSize
	if w.qlocal.len() < c {
		var start time.Time
		if w.tracer != nil {
			start = time.Now()
		}
		if batch, ok, err := w.lsmall.refill(); err != nil {
			w.rt.fail(err)
		} else if ok {
			w.qlocal.pushBackAll(batch)
			w.tracer.Record(w.track, obs.KindRefill, start, time.Since(start), uint64(len(batch)), 0)
		} else {
			spawned = w.spawnScan()
		}
	}
	// A task with nothing to pull ends the batch it is popped in: company
	// saves it no round trip, and every ready small task a thread holds
	// is computed before the thread looks at Qglobal again, where the
	// tasks that fan out wait. A stream of pull-less subtasks is popped
	// one at a time.
	n := min(c, w.qlocal.len())
	for i, t := range w.qlocal.items[:n] {
		if len(t.Pulls) == 0 {
			n = i + 1
			break
		}
	}
	w.batch = w.qlocal.popFrontBatch(w.batch, n)
	return spawned
}

// spawnScan walks un-spawned root vertices until it has queued C
// tasks — tasks, not vertices: a stretch of the partition that fails
// the app's spawn test is skipped in place, so the scan ends only with
// a task queued, the cursor and the adopted list exhausted, or the job
// done. Per the third reforge change it also stops as soon as a
// spawned task is big, so one refill cannot flood the global queue.
// It reports whether it queued anything.
//
// The scan holds one unit of liveness from before its first claim
// until every task it spawned is counted: termination detection fires
// on allSpawned && live == 0, and claiming the last vertex is what
// makes allSpawned true, so without the hold a status read could see
// the final vertex as spawned with nothing alive and end the job
// before its task ever reached a queue.
func (w *worker) spawnScan() bool {
	rt := w.rt
	jb := rt.jb()
	if rt.allSpawned(jb) {
		return false
	}
	var start time.Time
	if w.tracer != nil {
		start = time.Now()
	}
	jb.live.Add(1)
	spawned, scanned := 0, 0
	for spawned < rt.cfg.BatchSize && !jb.doneFlag.Load() {
		v, ok := rt.nextRoot(jb)
		if !ok {
			break
		}
		scanned++
		t := jb.app.Spawn(v, rt.g.Adj(v), &w.ctx)
		if t == nil {
			continue
		}
		jb.live.Add(1)
		jb.spawnedTasks.Add(1)
		spawned++
		if rt.isBig(t) {
			w.addGlobal(t)
			break // stop at first big task
		}
		w.addLocal(t)
	}
	rt.release(jb, 1)
	if scanned > 0 {
		w.tracer.Record(w.track, obs.KindSpawn, start, time.Since(start), uint64(spawned), uint64(scanned))
	}
	return spawned > 0
}

// resolveBatch satisfies the pull requests of ts — up to C tasks off
// Qlocal, the pending list, or one big task — and moves every task to
// its ready buffer; it is the only resolve path, and it never
// computes. The batch pays for its remote data once: one pass splits
// the pulls into local table reads and remote lookups, one cache
// acquire pins the rows already held, the misses are deduplicated and
// grouped by owner into one FetchAdjBatch per owner, and one insert
// pins the fetched rows for every task that wanted them. Each task's
// frontier is a window of one allocation, its pin list of another;
// everything else is the worker's scratch.
//
// A transport failure fails the job and drops the whole batch: the
// pins acquire took are given back from the lists the batch already
// holds, and nothing it fetched was inserted, so the cache ends
// neither poisoned nor pinned.
func (w *worker) resolveBatch(ts []*Task) {
	rt := w.rt
	jb := rt.jb()
	pulls := 0
	for _, t := range ts {
		pulls += len(t.Pulls)
	}
	if pulls == 0 {
		w.pushReady(jb, ts)
		return
	}
	var start time.Time
	if w.tracer != nil {
		start = time.Now()
	}
	rs := &w.rs
	frontier := make([][]graph.V, pulls)
	// pins lists the batch's remote lookups, allocated at the first one
	// with room for every pull still to come: tasks hold windows of it,
	// so no append may reallocate it. A batch that pulls only local
	// vertices has none.
	var pins []graph.V
	at := rs.at[:0]
	slot := 0
	for _, t := range ts {
		first := len(pins)
		for _, id := range t.Pulls {
			if owner(id, rt.cfg.Machines) == rt.id {
				frontier[slot] = rt.g.Adj(id)
			} else {
				if pins == nil {
					pins = make([]graph.V, 0, pulls-slot)
				}
				pins = append(pins, id)
				at = append(at, int32(slot))
			}
			slot++
		}
		t.frontier = frontier[slot-len(t.Pulls) : slot : slot]
		t.pinned = pins[first:len(pins):len(pins)]
	}
	rs.at = at
	if local := pulls - len(pins); local > 0 {
		jb.localReads.Add(uint64(local))
	}
	ok := true
	if len(pins) > 0 {
		rs.missing = rt.cache.acquire(pins, at, frontier, rs.missing[:0])
		if len(rs.missing) > 0 {
			ok = w.fetchMissing(pins, frontier)
		}
	}
	if w.tracer != nil {
		w.tracer.Record(w.track, obs.KindResolve, start, time.Since(start), uint64(len(ts)), uint64(len(pins)))
	}
	if ok {
		w.pushReady(jb, ts)
	}
}

// pushReady moves resolved tasks to their ready buffers: big ones to
// the machine's Bglobal, the rest to this worker's Blocal.
func (w *worker) pushReady(jb *jobState, ts []*Task) {
	for _, t := range ts {
		if w.rt.isBig(t) {
			jb.pushReady(t)
		} else {
			w.blocal = append(w.blocal, t)
		}
	}
}

// fetchMissing pulls the lookups of a batch that the cache missed
// (rs.missing, positions in pins) through the transport and stores
// their rows in the frontier. An id wanted by k lookups crosses the
// wire once: the missed (owner, id) pairs are sorted and deduplicated,
// which also groups them by owner, so each owner gets one round trip
// for the whole batch. Only when every owner has answered are the rows
// inserted, pinned once per lookup. On failure it records the error,
// releases the pins acquire took, and returns false.
func (w *worker) fetchMissing(pins []graph.V, frontier [][]graph.V) bool {
	rt := w.rt
	rs := &w.rs
	keys := rs.keys[:0]
	for _, j := range rs.missing {
		id := pins[j]
		keys = append(keys, uint64(owner(id, rt.cfg.Machines))<<32|uint64(id))
	}
	rs.keys = keys
	rs.want = append(rs.want[:0], keys...)
	slices.Sort(rs.want)
	rs.want = slices.Compact(rs.want)
	want := rs.want
	ids := rs.ids[:0]
	for _, key := range want {
		ids = append(ids, graph.V(key))
	}
	rs.ids = ids

	adjs := rs.adjs[:0]
	for lo := 0; lo < len(want); {
		owner := int(want[lo] >> 32)
		hi := lo + 1
		for hi < len(want) && int(want[hi]>>32) == owner {
			hi++
		}
		var fstart time.Time
		if w.tracer != nil {
			fstart = time.Now()
		}
		got, err := rt.transport.FetchAdjBatch(owner, ids[lo:hi], adjs)
		if w.tracer != nil {
			w.tracer.Record(w.track, obs.KindFetch, fstart, time.Since(fstart), uint64(owner), uint64(hi-lo))
		}
		if err == nil && len(got) != hi {
			err = fmt.Errorf("gthinker: transport returned %d adjacency lists for %d ids", len(got)-lo, hi-lo)
		}
		if err != nil {
			rt.fail(err)
			w.releaseHits(pins)
			return false
		}
		adjs = got
		lo = hi
	}
	rs.adjs = adjs // keep the (possibly grown) backing array

	refs := append(rs.refs[:0], make([]int32, len(want))...)
	for k, j := range rs.missing {
		i, _ := slices.BinarySearch(want, keys[k])
		frontier[rs.at[j]] = adjs[i]
		refs[i]++
	}
	rs.refs = refs
	rt.cache.insert(ids, adjs, refs)
	return true
}

// releaseHits unpins what acquire pinned for a batch that is being
// dropped: every member of pins but the missed lookups, whose
// positions rs.missing lists in ascending order.
func (w *worker) releaseHits(pins []graph.V) {
	held := make([]graph.V, 0, len(pins)-len(w.rs.missing))
	missing := w.rs.missing
	for j, id := range pins {
		if len(missing) > 0 && int(missing[0]) == j {
			missing = missing[1:]
			continue
		}
		held = append(held, id)
	}
	w.rt.cache.release(held)
}

// compute runs Compute iterations until the task suspends on pulls
// (it joins the pending list) or finishes, routing any subtasks it
// creates.
func (w *worker) compute(t *Task) {
	rt := w.rt
	jb := rt.jb()
	for {
		w.ctx.reset()
		start := time.Now()
		more := jb.app.Compute(t, t.frontier, &w.ctx)
		dur := time.Since(start)
		w.busy += dur
		jb.computeCalls.Add(1)
		w.tracer.Record(w.track, obs.KindCompute, start, dur, uint64(len(w.ctx.newTasks)), 0)

		if len(t.pinned) > 0 {
			rt.cache.release(t.pinned)
		}
		t.frontier, t.pinned = nil, nil

		for _, nt := range w.ctx.newTasks {
			jb.subtasksAdded.Add(1)
			jb.live.Add(1)
			w.route(nt)
		}
		if !more {
			jb.tasksFinished.Add(1)
			rt.release(jb, 1)
			return
		}
		if len(w.ctx.pulls) == 0 {
			continue // next iteration immediately
		}
		t.Pulls = append([]graph.V(nil), w.ctx.pulls...)
		w.pending = append(w.pending, t)
		return
	}
}
