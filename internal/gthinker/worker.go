package gthinker

import (
	"fmt"
	"time"

	"gthinkerqc/internal/graph"
	"gthinkerqc/internal/obs"
)

// worker is one mining thread with its own small-task queue, spill
// list, and ready buffer.
type worker struct {
	id int // dense across machines: machine*WorkersPerMachine + index
	rt *MachineRuntime

	qlocal deque
	lsmall *spillList
	blocal ready
	ctx    Ctx

	// adjScratch is the reusable destination for FetchAdjBatch's outer
	// slice: the transport appends the fetched lists into it and the
	// resolve path copies them out into the frontier map before the
	// next call, so the outer allocation is paid once per worker.
	adjScratch [][]graph.V

	// tracer/track alias rt.tracer and this worker's ring; nil tracer
	// (tracing off) short-circuits every Record to one branch.
	tracer *obs.Tracer
	track  int

	// busy is the accumulated Compute time. It stays a plain field —
	// only read after Stop — where the call counters moved to job
	// atomics so status polls can sample them live.
	busy time.Duration
}

// resetJob clears the worker's per-job half — queues, spill list,
// busy time, tracer alias — keeping the warm per-process half
// (adjScratch, and whatever the app pools per worker). Only called
// between jobs, when the worker goroutine has exited.
func (w *worker) resetJob(jb *jobState) {
	w.qlocal = deque{}
	w.blocal.reset()
	w.lsmall = newSpillList(w.lsmall.dir, w.lsmall.name, w.lsmall.acct, jb.app)
	w.busy = 0
	w.tracer = jb.tracer
}

// addLocal enqueues a small task on this worker, spilling on overflow.
func (w *worker) addLocal(t *Task) {
	w.qlocal.pushBack(t)
	w.rt.jb().smallTasks.Add(1)
	if w.qlocal.len() > w.rt.cfg.QueueCap {
		batch := w.qlocal.popBackBatch(w.rt.cfg.BatchSize)
		var start time.Time
		if w.tracer != nil {
			start = time.Now()
		}
		if err := w.lsmall.spill(batch); err != nil {
			w.rt.fail(err)
		}
		if w.tracer != nil {
			w.tracer.Record(w.track, obs.KindSpill, start, time.Since(start), uint64(len(batch)), 0)
		}
	}
}

// route sends a task created during Compute to the right queue
// (reforge: big tasks to the machine-wide global queue).
func (w *worker) route(t *Task) {
	if w.rt.isBig(t) {
		w.rt.addGlobal(t)
	} else {
		w.addLocal(t)
	}
}

// run is the mining-thread main loop, the reforged Algorithm 3:
//
//	push: compute a ready big task (Bglobal) first, else a ready
//	      small task (Blocal);
//	pop:  try the global queue (refilled from Lbig when low; a failed
//	      try-lock falls through), else the local queue (refilled from
//	      Lsmall, then by the spawn scan — which stops at the first big
//	      task).
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
// worker owns (Qlocal, Lsmall, Blocal) is empty and only the shared
// sources can feed it: Bglobal, Qglobal backed by Lbig, the spawn
// cursor, the adopted list. The worker registers as a sleeper BEFORE
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
func (w *worker) step(jb *jobState) bool {
	// Push phase: big ready tasks are prioritized across the machine.
	if t := jb.bglobal.pop(); t != nil {
		w.compute(t)
		return true
	}
	if t := w.blocal.pop(); t != nil {
		w.compute(t)
		return true
	}
	// Pop phase.
	if t := w.popGlobal(jb); t != nil {
		w.resolve(t)
		return true
	}
	t, spawned := w.popLocal()
	if t != nil {
		w.resolve(t)
		return true
	}
	// A scan whose only task was big queued it globally: progress, and
	// the next step pops it.
	return spawned
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

// popLocal pops from the worker's own queue, refilling it first when
// it runs low: from Lsmall, else by the spawn scan. spawned reports
// that the scan queued at least one task somewhere.
func (w *worker) popLocal() (t *Task, spawned bool) {
	if w.qlocal.len() < w.rt.cfg.BatchSize {
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
	return w.qlocal.popFront(), spawned
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
			rt.addGlobal(t)
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

// resolve satisfies a task's pull requests — local table reads for
// owned vertices, cache/transport for remote ones — and moves it to
// the appropriate ready buffer. Tasks without pulls compute
// immediately (Algorithm 5: iteration 2 flows straight into 3).
func (w *worker) resolve(t *Task) {
	if len(t.Pulls) == 0 {
		w.compute(t)
		return
	}
	rt := w.rt
	frontier := make(map[graph.V][]graph.V, len(t.Pulls))
	var remote []graph.V
	local := 0
	for _, id := range t.Pulls {
		if rt.part.owner(id) == rt.id {
			frontier[id] = rt.g.Adj(id)
			local++
		} else {
			remote = append(remote, id)
		}
	}
	if local > 0 {
		rt.jb().localReads.Add(uint64(local))
	}
	if len(remote) > 0 {
		missing := rt.cache.acquire(remote, frontier)
		if len(missing) > 0 && !w.fetchMissing(missing, frontier) {
			// Transport failure: the machine is stopping. Unpin what
			// acquire pinned (fetchMissing already unpinned its own
			// inserts) and drop the task — nothing will run it, and
			// nothing poisoned the cache.
			w.releaseExcept(remote, missing)
			return
		}
	}
	t.frontier = frontier
	t.pinned = remote
	if rt.isBig(t) {
		rt.jb().pushReady(t)
	} else {
		w.blocal.push(t)
	}
}

// fetchMissing pulls the cache-missed remote vertices through the
// transport, grouped into one batched round trip per owning machine —
// a task with p pulls spread over k machines pays k network latencies,
// not p. Fetched lists are inserted pre-pinned and added to frontier.
// On failure it records the error, unpins everything it inserted, and
// returns false with the cache unpoisoned.
func (w *worker) fetchMissing(missing []graph.V, frontier map[graph.V][]graph.V) bool {
	rt := w.rt
	byOwner := make([][]graph.V, rt.cfg.Machines)
	for _, id := range missing {
		o := rt.part.owner(id)
		byOwner[o] = append(byOwner[o], id)
	}
	inserted := make([]graph.V, 0, len(missing))
	for o, ids := range byOwner {
		if len(ids) == 0 {
			continue
		}
		var fstart time.Time
		if w.tracer != nil {
			fstart = time.Now()
		}
		adjs, err := rt.transport.FetchAdjBatch(o, ids, w.adjScratch[:0])
		if w.tracer != nil {
			w.tracer.Record(w.track, obs.KindFetch, fstart, time.Since(fstart), uint64(o), uint64(len(ids)))
		}
		if err == nil && len(adjs) != len(ids) {
			err = fmt.Errorf("gthinker: transport returned %d adjacency lists for %d ids", len(adjs), len(ids))
		}
		if err != nil {
			rt.fail(err)
			rt.cache.release(inserted)
			return false
		}
		w.adjScratch = adjs[:0] // keep the (possibly grown) backing array
		for i, id := range ids {
			rt.cache.insert(id, adjs[i])
			frontier[id] = adjs[i]
			inserted = append(inserted, id)
		}
	}
	return true
}

// releaseExcept unpins the members of ids that are not in skip (the
// failed-resolve path: acquire pinned exactly the non-missing ids).
func (w *worker) releaseExcept(ids, skip []graph.V) {
	inSkip := make(map[graph.V]bool, len(skip))
	for _, id := range skip {
		inSkip[id] = true
	}
	held := ids[:0]
	for _, id := range ids {
		if !inSkip[id] {
			held = append(held, id)
		}
	}
	w.rt.cache.release(held)
}

// compute runs Compute iterations until the task suspends on pulls or
// finishes, routing any subtasks it creates.
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

		if t.pinned != nil {
			rt.cache.release(t.pinned)
			t.pinned = nil
		}
		t.frontier = nil

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
		w.resolve(t)
		return
	}
}
