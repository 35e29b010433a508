package gthinker

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"

	"gthinkerqc/internal/graph"
	"gthinkerqc/internal/obs"
)

// jobState is the per-job half of a MachineRuntime: the job's
// application and everything a mining job mutates — spawn/adopt
// cursors, task queues, spill lists, liveness accounting, counters,
// the tracer — separated from the
// per-process half (mmap'd graph, vertex partition, warm remote-vertex
// cache, workers with their scratch buffers, transport) so one runtime
// can serve many jobs against the same graph. A fresh jobState is
// installed by MachineRuntime.ResetJob between jobs, so "reset" is
// allocation of a new struct (newJobState), not field-by-field
// clearing.
type jobState struct {
	// id tags this job cluster-wide: the control plane threads it
	// through every frame so a stale worker and a coordinator can
	// detect that they disagree about which job is running.
	id uint64

	// app is the job's application: its UDFs run the tasks and its
	// TaskCodec half serializes them for spill files and the wire. Nil
	// only on the never-started placeholder job a fresh runtime holds
	// until its first ResetJob.
	app App

	// spawnCursor walks the runtime's own vertex partition.
	spawnCursor atomic.Int64

	// Adopted root partitions (worker-loss recovery): when the
	// coordinator makes this runtime the adopter of a dead machine's
	// hash partitions, their vertices are appended here and spawned
	// after the runtime's own cursor is exhausted. adoptPending is
	// incremented before the vertices become spawnable and decremented
	// under the same lock that hands a vertex out (after the worker
	// reserved liveness), so a status scan can never observe
	// AllSpawned with an adopted root unaccounted.
	adoptMu      sync.Mutex
	adoptVerts   []graph.V
	adoptCursor  int
	adoptPending atomic.Int64
	adoptSpawned atomic.Int64

	// retained keeps a copy of every encoded task batch shipped to
	// each peer while recovery is enabled. If that peer dies, the
	// batches are decoded and re-enqueued locally: they cover subtrees
	// stolen INTO the dead machine from still-live roots, which no
	// partition respawn would regenerate. Bounded by the job's total
	// stolen-task volume; the app's final pass (the miner's
	// quasiclique.Finalize) drops repeats, so re-mining the
	// already-processed ones is exact, not duplicate.
	retainMu sync.Mutex
	retained map[int][][]byte

	qglobal lockedDeque
	lbig    *spillList
	bglobal ready

	// live counts tasks alive on THIS machine (queues, buffers, disk,
	// in flight). sentOut/recvIn count tasks that crossed machine
	// boundaries: a stolen task is counted by the receiver (recvIn,
	// live) before the donor uncounts it (sentOut, live), so the
	// cluster-wide sum of live never under-counts — the invariant the
	// coordinator's termination detection rests on.
	live     atomic.Int64
	sentOut  atomic.Uint64
	recvIn   atomic.Uint64
	doneFlag atomic.Bool

	// The machine's wake primitive. A worker that finds no work
	// registers in sleepers, re-checks the shared queues, and blocks on
	// wakeCh (one token per wake, capacity = workers); whoever makes
	// shared work visible calls wake, which costs one atomic load while
	// nobody sleeps. doneCh closes together with doneFlag, so Stop and
	// fail release every parked worker and every held status reply at
	// once. quietCh (capacity 1) carries the quiescence edge — live
	// reaching zero on a fully spawned machine — to a status handler
	// holding its reply (MachineRuntime.awaitQuiet).
	sleepers atomic.Int32
	wakeCh   chan struct{}
	quietCh  chan struct{}
	doneCh   chan struct{}

	errMu sync.Mutex
	err   error

	bigTasks      atomic.Uint64
	smallTasks    atomic.Uint64
	spawnedTasks  atomic.Uint64
	subtasksAdded atomic.Uint64

	// Formerly plain per-worker fields, migrated to job atomics so
	// a status reply can sample them live (the incremental counter
	// snapshots the coordinator's debug view is built from).
	// Per-worker busy time stays a plain worker field: it is only read
	// after Stop.
	computeCalls  atomic.Uint64
	tasksFinished atomic.Uint64
	localReads    atomic.Uint64

	// tracer records scheduling spans when Config.Trace is set; nil
	// otherwise (the off fast path is one branch per event). Tracks:
	// one per worker, plus a control track (index WorkersPerMachine)
	// for events recorded off the mining threads — steal shipping,
	// stolen-batch delivery, recovery.
	tracer *obs.Tracer

	started  atomic.Bool
	stopped  atomic.Bool
	workerWG sync.WaitGroup
}

// fail records the job's first error and stops the machine's workers.
// A held status reply is released with it, so the coordinator learns
// of the failure at once and tears the rest of the cluster down.
func (jb *jobState) fail(err error) {
	jb.errMu.Lock()
	if jb.err == nil {
		jb.err = err
	}
	jb.errMu.Unlock()
	jb.halt()
}

// halt ends the job on this machine: workers leave their loop at the
// next check, parked ones wake, held status replies go out.
func (jb *jobState) halt() {
	if jb.doneFlag.CompareAndSwap(false, true) {
		close(jb.doneCh)
	}
}

// wake releases up to n parked workers. Call it AFTER the work is
// visible in a shared queue: a worker registers as a sleeper before
// its final look at those queues, so either this load sees it or its
// look sees the work.
func (jb *jobState) wake(n int) {
	for s := int(jb.sleepers.Load()); n > 0 && s > 0; n, s = n-1, s-1 {
		select {
		case jb.wakeCh <- struct{}{}:
		default:
			return // every worker already has a token pending
		}
	}
}

// pushGlobal makes big tasks poppable on the machine-wide queue.
func (jb *jobState) pushGlobal(ts ...*Task) {
	jb.qglobal.pushBackAll(ts)
	jb.wake(len(ts))
}

// pushReady makes a resolved big task computable by any worker.
func (jb *jobState) pushReady(t *Task) {
	jb.bglobal.push(t)
	jb.wake(1)
}

func (jb *jobState) loadErr() error {
	jb.errMu.Lock()
	defer jb.errMu.Unlock()
	return jb.err
}

// jb returns the runtime's current job state. It is an atomic pointer
// load: status polls and debug scrapes racing a ResetJob see either
// the old job or the new one, never a mix.
func (rt *MachineRuntime) jb() *jobState { return rt.job.Load() }

// JobID returns the id of the job currently installed on this runtime
// (0 until the first ResetJob).
func (rt *MachineRuntime) JobID() uint64 { return rt.jb().id }

// AppendTaskPayload and DecodeTaskPayload make the runtime a TaskCodec
// that always serializes with the CURRENT job's application: the task
// server outlives jobs, so it holds the runtime, never one job's app.
// Between join and the first run there is no app; a task frame that
// arrives then is refused (an opError reply), not dereferenced.
func (rt *MachineRuntime) AppendTaskPayload(dst []byte, payload any) ([]byte, error) {
	app := rt.jb().app
	if app == nil {
		return nil, errNoJob
	}
	return app.AppendTaskPayload(dst, payload)
}

func (rt *MachineRuntime) DecodeTaskPayload(data []byte) (any, error) {
	app := rt.jb().app
	if app == nil {
		return nil, errNoJob
	}
	return app.DecodeTaskPayload(data)
}

var errNoJob = errors.New("gthinker: machine is not on a job")

// aborted is the workers' cancellation probe for whatever job is
// current — bound once per worker Ctx at construction, valid across
// job resets.
func (rt *MachineRuntime) aborted() bool { return rt.jb().doneFlag.Load() }

// newJobState builds the runtime-level state of one job running app:
// fresh cursors, queues, spill list, counters, and (when tracing is
// on) a fresh tracer.
func (rt *MachineRuntime) newJobState(id uint64, app App) *jobState {
	jb := &jobState{id: id, app: app,
		wakeCh:  make(chan struct{}, rt.cfg.WorkersPerMachine),
		quietCh: make(chan struct{}, 1),
		doneCh:  make(chan struct{}),
	}
	jb.lbig = newSpillList(rt.spillDir, "big", &rt.disk, app, rt.g.NumVertices())
	if rt.cfg.Trace {
		// One track per worker (tid = dense worker id) plus the control
		// track (tid = -(machine+1), distinct from the coordinator's
		// pid -1 tracks because the pid differs).
		base := rt.id * rt.cfg.WorkersPerMachine
		tids := make([]int32, rt.cfg.WorkersPerMachine+1)
		for j := 0; j < rt.cfg.WorkersPerMachine; j++ {
			tids[j] = int32(base + j)
		}
		tids[rt.cfg.WorkersPerMachine] = int32(-(rt.id + 1))
		jb.tracer = obs.NewTracer(int32(rt.id), tids, 0)
	}
	return jb
}

// ResetJob prepares the runtime to run a new job against the same
// graph: the previous job's queues, cursors, counters, and spill
// leftovers are dropped, app becomes the new job's application, and
// the warm state — the mmap'd graph, the vertex partition, the
// remote-vertex cache, the workers' scratch buffers and miner pools —
// carries over untouched. The previous job must not be running
// (started implies stopped).
func (rt *MachineRuntime) ResetJob(app App, job uint64) error {
	old := rt.jb()
	if old.started.Load() && !old.stopped.Load() {
		return fmt.Errorf("gthinker: machine %d reset to job %d while job %d is still running", rt.id, job, old.id)
	}
	// A cancelled or failed job can leave spill files behind; unlink
	// them so they cannot bleed into the new job's lists, and rebuild
	// the directory (CleanupSpill may have removed it).
	rt.sweepSpill()
	if err := os.MkdirAll(rt.spillDir, 0o755); err != nil {
		return err
	}
	// A cancelled job abandons resolved tasks in its ready buffers
	// with their remote vertices still pinned; nothing will ever
	// release them. Clear all pins (no task can legitimately hold one
	// between jobs) so the cache stays evictable — its rows stay warm.
	rt.cache.unpinAll()
	rt.disk.resetJobCounters()
	jb := rt.newJobState(job, app)
	rt.job.Store(jb)
	for _, w := range rt.workers {
		w.resetJob(jb)
	}
	return nil
}
