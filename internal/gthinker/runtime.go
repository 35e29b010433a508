package gthinker

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"gthinkerqc/internal/graph"
	"gthinkerqc/internal/obs"
	"gthinkerqc/internal/store"
)

// MachineRuntime is the unit of execution of the cluster: ONE machine's
// vertex partition, task queues, spill lists, remote-vertex cache, and
// mining workers. It owns no cross-machine state — everything it knows
// about the rest of the cluster flows through its Transport (data
// plane: adjacency fetches, stolen task batches) and through the
// control-plane methods the coordinator calls (Status, StealTo, Stop).
// A cluster is a composition of runtimes, each hosted by a WorkerHost:
// N of them in this process, or one per qcworker OS process.
type MachineRuntime struct {
	id  int
	g   *graph.Graph
	cfg Config

	transport Transport

	verts []graph.V // local vertex partition (sorted)

	cache   *vertexCache
	workers []*worker
	disk    diskAccount

	spillDir string
	ownSpill bool

	// job holds the state of the job currently (or most recently)
	// installed on this runtime: the application, cursors, queues,
	// spill lists, liveness accounting, counters, and tracer that must
	// reset between jobs (see jobState). Everything above amortizes across
	// jobs — the graph, the partition, the warm remote-vertex cache,
	// the workers with their scratch buffers, and the transport.
	// Swapped atomically by ResetJob so a concurrent status poll or
	// debug scrape sees one consistent job, never a mix of two.
	job atomic.Pointer[jobState]
}

// procHeap is the process-wide heap sampler (the RAM columns of
// Tables 2 and 5). One sampler serves every runtime in the process:
// HeapAlloc is a process-wide number, and ReadMemStats briefly stops
// the world, so N runtimes sampling independently would multiply that
// pause for identical readings. Refcounted: the first Start of a quiet
// process resets the peak and launches the goroutine, the last Stop
// ends it.
var procHeap heapSampler

type heapSampler struct {
	mu   sync.Mutex
	refs int
	stop chan struct{}
	done chan struct{}
	peak atomic.Int64
}

func (s *heapSampler) acquire() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.refs++
	if s.refs > 1 {
		return
	}
	s.peak.Store(0)
	s.stop = make(chan struct{})
	s.done = make(chan struct{})
	go func(stop, done chan struct{}) {
		defer close(done)
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		var ms runtime.MemStats
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				runtime.ReadMemStats(&ms)
				raiseTo(&s.peak, int64(ms.HeapAlloc))
			}
		}
	}(s.stop, s.done)
}

func (s *heapSampler) release() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.refs--
	if s.refs == 0 {
		close(s.stop)
		<-s.done
	}
}

// sampleNow takes one immediate sample (short jobs can finish between
// ticks).
func (s *heapSampler) sampleNow() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	raiseTo(&s.peak, int64(ms.HeapAlloc))
}

// newMachineRuntime builds the runtime for machine id of a cluster of
// cfg.Machines machines. The graph must be immutable for the duration
// (each process maps or loads its own copy; in-process compositions
// share one). verts is an optional precomputed partition (nil derives
// it): the in-process cluster partitions all machines in one pass
// instead of M hash sweeps. The runtime holds neither a data plane nor
// an application yet: its host installs the first with SetTransport
// (over the join's peer table, once the runtime is built) and every
// job brings the second through ResetJob.
func newMachineRuntime(g *graph.Graph, cfg Config, id int, verts []graph.V) (*MachineRuntime, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if id < 0 || id >= cfg.Machines {
		return nil, fmt.Errorf("gthinker: machine id %d out of range [0,%d)", id, cfg.Machines)
	}
	rt := &MachineRuntime{id: id, g: g, cfg: cfg}

	if cfg.SpillDir == "" {
		dir, err := os.MkdirTemp("", "gthinker-spill-")
		if err != nil {
			return nil, err
		}
		rt.spillDir = dir
		rt.ownSpill = true
	} else {
		rt.spillDir = filepath.Join(cfg.SpillDir, "machine-"+strconv.Itoa(id))
	}
	if err := os.MkdirAll(rt.spillDir, 0o755); err != nil {
		return nil, err
	}

	if verts == nil {
		verts = ownedVertices(g.NumVertices(), cfg.Machines, id)
	}
	rt.verts = verts
	rt.cache = newVertexCache(cfg.CacheCap)
	jb := rt.newJobState(0, nil)
	rt.job.Store(jb)
	for j := 0; j < cfg.WorkersPerMachine; j++ {
		w := &worker{rt: rt, tracer: jb.tracer, track: j,
			lsmall: newSpillList(rt.spillDir, "small-"+strconv.Itoa(j), &rt.disk, nil, g.NumVertices())}
		w.ctx = Ctx{WorkerID: j, MachineID: id, aborted: rt.aborted}
		rt.workers = append(rt.workers, w)
	}
	return rt, nil
}

// ctlTrack is the tracer track for events recorded off the mining
// threads (control-plane handlers, task-server deliveries).
func (rt *MachineRuntime) ctlTrack() int { return rt.cfg.WorkersPerMachine }

// TraceSnapshot copies the retained trace spans out of this machine's
// rings (empty when tracing is disabled). Safe while mining runs; the
// control plane's trace-collection op calls it after shutdown.
func (rt *MachineRuntime) TraceSnapshot() *obs.Trace {
	return rt.jb().tracer.Snapshot()
}

// ID returns the runtime's machine id.
func (rt *MachineRuntime) ID() int { return rt.id }

// SetTransport installs the data plane. Must be called before Start
// (the worker-host handshake builds the transport only after the
// coordinator distributes peer addresses).
func (rt *MachineRuntime) SetTransport(tr Transport) { rt.transport = tr }

// Start launches the current job's workers and the heap sampler. It
// returns immediately; the runtime mines until Stop.
func (rt *MachineRuntime) Start() error {
	if rt.transport == nil {
		return fmt.Errorf("gthinker: machine %d started without a transport", rt.id)
	}
	jb := rt.jb()
	if jb.app == nil {
		return fmt.Errorf("gthinker: machine %d started without a job (ResetJob first)", rt.id)
	}
	if !jb.started.CompareAndSwap(false, true) {
		return fmt.Errorf("gthinker: machine %d job %d started twice", rt.id, jb.id)
	}
	procHeap.acquire()
	for _, w := range rt.workers {
		jb.workerWG.Add(1)
		go func(w *worker) {
			defer jb.workerWG.Done()
			w.run()
		}(w)
	}
	return nil
}

// Stop halts the current job and joins its workers. Idempotent; safe
// to call from any goroutine (the control plane's shutdown handler,
// the cluster's final sweep). After Stop returns, non-atomic worker
// state (busy times, call counters) is safe to read from the caller's
// goroutine, and the runtime is eligible for ResetJob.
func (rt *MachineRuntime) Stop() {
	jb := rt.jb()
	jb.halt()
	if !jb.started.Load() || !jb.stopped.CompareAndSwap(false, true) {
		// Never started, or another caller is joining the workers; wait
		// for that caller's outcome so every Stop returns post-join.
		if jb.started.Load() {
			jb.workerWG.Wait()
		}
		return
	}
	jb.workerWG.Wait()
	procHeap.release()
}

// fail records the job's first error and stops the machine's workers
// (see jobState.fail).
func (rt *MachineRuntime) fail(err error) { rt.jb().fail(err) }

// Err returns the current job's first failure, or nil.
func (rt *MachineRuntime) Err() error { return rt.jb().loadErr() }

// MachineStatus is one machine's control-plane liveness report: the
// inputs of the coordinator's termination detection and steal planning.
type MachineStatus struct {
	// AllSpawned reports that the machine's spawn cursor is exhausted.
	AllSpawned bool
	// Live is the number of tasks alive on this machine.
	Live int64
	// BigPending is the stealable big-task backlog (queued + spilled).
	BigPending int64
	// SentOut / RecvIn count tasks shipped to and delivered from other
	// machines. The coordinator declares termination only after two
	// consecutive scans agree on them (see coordinator.terminated).
	SentOut uint64
	RecvIn  uint64
	// Spawned is the number of root tasks spawned so far (own
	// partition plus adopted ones) — the durable spawn cursor the
	// coordinator tracks per machine for loss accounting.
	Spawned int64
	// Counters is the machine's live counter snapshot, piggybacked on
	// the status reply so the coordinator holds a continuously-updated
	// per-machine view (its debug server's /metrics) instead of
	// learning everything from the shutdown report. All cheap
	// atomic reads on the machine.
	Counters
	// Failure carries the machine's first error, or "".
	Failure string
}

// quiescent reports a machine with every root spawned and no task
// alive: nothing is left for it to do unless another machine sends
// something.
func (st MachineStatus) quiescent() bool { return st.AllSpawned && st.Live == 0 }

// Status returns the runtime's current liveness report. AllSpawned is
// read before Live: the spawn scan reserves liveness before it claims
// a vertex, so this order can never observe the final vertex as
// spawned with its task not yet counted.
func (rt *MachineRuntime) Status() MachineStatus {
	jb := rt.jb()
	st := MachineStatus{
		AllSpawned: rt.allSpawned(jb),
		Live:       jb.live.Load(),
		BigPending: int64(rt.bigPending()),
		SentOut:    jb.sentOut.Load(),
		RecvIn:     jb.recvIn.Load(),
		Spawned:    rt.spawnedCount(jb),
		Counters:   rt.liveCounters(),
	}
	if err := jb.loadErr(); err != nil {
		st.Failure = err.Error()
	}
	return st
}

func (rt *MachineRuntime) allSpawned(jb *jobState) bool {
	return int(jb.spawnCursor.Load()) >= len(rt.verts) && jb.adoptPending.Load() == 0
}

// spawnedCount returns the number of root vertices claimed for
// spawning: the own cursor plus adopted ones.
func (rt *MachineRuntime) spawnedCount(jb *jobState) int64 {
	return jb.spawnCursor.Load() + jb.adoptSpawned.Load()
}

// nextRoot claims the next un-spawned root vertex: the machine's own
// partition first, then adopted ones (a dead machine's partition,
// re-owned by recovery). The cursor stops at the partition's end. The
// caller holds liveness (see worker.spawnScan).
func (rt *MachineRuntime) nextRoot(jb *jobState) (graph.V, bool) {
	for {
		cur := jb.spawnCursor.Load()
		if int(cur) >= len(rt.verts) {
			return rt.nextAdopted()
		}
		if jb.spawnCursor.CompareAndSwap(cur, cur+1) {
			return rt.verts[cur], true
		}
	}
}

// quiescent reports that nothing is left to do on this machine: every
// root spawned, no task alive. Same read order as Status.
func (rt *MachineRuntime) quiescent(jb *jobState) bool {
	return rt.allSpawned(jb) && jb.live.Load() == 0
}

// release uncounts n tasks that finished or left this machine. The
// call that takes live to zero on a fully spawned machine IS the
// quiescence edge — allSpawned only turns true under a spawn scan's
// liveness hold, so no other path leads into that state — and it posts
// the edge for a status handler holding its reply.
func (rt *MachineRuntime) release(jb *jobState, n int) {
	if jb.live.Add(-int64(n)) == 0 && rt.allSpawned(jb) {
		select {
		case jb.quietCh <- struct{}{}:
		default: // an unread edge is already posted
		}
	}
}

// awaitQuiet holds a status reply until the machine is worth hearing
// from: it returns at once when the machine is quiescent or its job
// has ended (stopped or failed), otherwise on the quiescence edge, the
// job's end, or after hold — whichever comes first. That turns the
// coordinator's status exchange into the termination signal: the
// reply leaves the instant the last task finishes.
func (rt *MachineRuntime) awaitQuiet(hold time.Duration) {
	jb := rt.jb()
	if rt.quiescent(jb) || jb.doneFlag.Load() {
		return
	}
	timer := time.NewTimer(hold)
	defer timer.Stop()
	for {
		select {
		case <-jb.quietCh:
			// The edge may predate new work (a steal landed, a partition
			// was adopted): only a machine quiescent NOW answers early.
			if rt.quiescent(jb) {
				return
			}
		case <-jb.doneCh:
			return
		case <-timer.C:
			return
		}
	}
}

// adopt appends extra root vertices for this runtime to spawn —
// recovery only: the dead machine's partitions. Pending is raised
// before the vertices become visible so AllSpawned flips false first;
// every worker is woken, since each may scan them.
func (rt *MachineRuntime) adopt(verts []graph.V) {
	if len(verts) == 0 {
		return
	}
	jb := rt.jb()
	jb.adoptMu.Lock()
	jb.adoptPending.Add(int64(len(verts)))
	jb.adoptVerts = append(jb.adoptVerts, verts...)
	jb.adoptMu.Unlock()
	jb.wake(len(rt.workers))
}

// nextAdopted hands out one adopted root vertex. The caller must hold
// liveness (the spawn scan's) already: pending is decremented
// here, under the lock, so the scan-visible order is live-up before
// pending-down — AllSpawned can never flip true with the final
// adopted task uncounted.
func (rt *MachineRuntime) nextAdopted() (graph.V, bool) {
	jb := rt.jb()
	jb.adoptMu.Lock()
	defer jb.adoptMu.Unlock()
	if jb.adoptCursor >= len(jb.adoptVerts) {
		return 0, false
	}
	v := jb.adoptVerts[jb.adoptCursor]
	jb.adoptCursor++
	jb.adoptSpawned.Add(1)
	jb.adoptPending.Add(-1)
	return v, true
}

// RecoverPeer absorbs a dead machine on this (surviving) runtime: the
// control plane's opRecover handler and the in-process composition
// both land here. Fetches addressed to the dead machine are
// redirected to the fallback machine, every retained task
// batch this runtime had shipped to the dead machine is re-owned
// (decoded and re-enqueued locally), and, on the designated adopter,
// the dead machine's hash partitions are adopted for respawning.
func (rt *MachineRuntime) RecoverPeer(d RecoverDirective) error {
	if d.Dead == rt.id {
		return fmt.Errorf("gthinker: machine %d directed to recover from its own death", rt.id)
	}
	if d.Dead < 0 || d.Dead >= rt.cfg.Machines || d.Fallback < 0 || d.Fallback >= rt.cfg.Machines {
		return fmt.Errorf("gthinker: recover directive references machine %d/%d of %d", d.Dead, d.Fallback, rt.cfg.Machines)
	}
	jb := rt.jb()
	var start time.Time
	if jb.tracer != nil {
		start = time.Now()
	}
	rt.transport.Redirect(d.Dead, d.Fallback)
	jb.retainMu.Lock()
	batches := jb.retained[d.Dead]
	delete(jb.retained, d.Dead)
	jb.retainMu.Unlock()
	reowned := 0
	for _, data := range batches {
		tasks, err := decodeTaskBatch(data, jb.app, rt.g.NumVertices())
		if err != nil {
			return fmt.Errorf("gthinker: machine %d re-owning batch shipped to dead machine %d: %w", rt.id, d.Dead, err)
		}
		reowned += len(tasks)
		rt.DeliverTasks(tasks)
	}
	defer func() {
		if jb.tracer != nil {
			jb.tracer.Record(rt.ctlTrack(), obs.KindRecoverPeer, start, time.Since(start), uint64(d.Dead), uint64(reowned))
		}
	}()
	if d.Adopter == rt.id {
		var verts []graph.V
		for _, id := range d.Adopt {
			if id < 0 || id >= rt.cfg.Machines {
				return fmt.Errorf("gthinker: recover directive adopts partition %d of %d", id, rt.cfg.Machines)
			}
			verts = append(verts, ownedVertices(rt.g.NumVertices(), rt.cfg.Machines, id)...)
		}
		rt.adopt(verts)
	}
	return nil
}

// retain stores a copy of an encoded batch shipped to dest so it can
// be re-owned if dest dies before the run completes.
func (rt *MachineRuntime) retain(dest int, data []byte) {
	cp := append([]byte(nil), data...)
	jb := rt.jb()
	jb.retainMu.Lock()
	if jb.retained == nil {
		jb.retained = make(map[int][][]byte)
	}
	jb.retained[dest] = append(jb.retained[dest], cp)
	jb.retainMu.Unlock()
}

// bigPending approximates the machine's pending big-task backlog for
// the stealing master (queued plus spilled).
func (rt *MachineRuntime) bigPending() int {
	jb := rt.jb()
	return jb.qglobal.len() + jb.lbig.count()
}

// isBig classifies a task, honoring the DisableGlobalQueue ablation.
func (rt *MachineRuntime) isBig(t *Task) bool {
	return !rt.cfg.DisableGlobalQueue && rt.jb().app.IsBig(t)
}

// DeliverTasks lands a batch of stolen tasks on this machine's global
// queue — a host's opTaskSteal answer (over a socket or a loopback)
// and recovery's re-owned batches share it. Liveness and the transfer
// counter are bumped BEFORE the tasks become poppable, so no scan can
// observe a reachable task that is not yet counted.
func (rt *MachineRuntime) DeliverTasks(tasks []*Task) {
	if len(tasks) == 0 {
		return
	}
	jb := rt.jb()
	var start time.Time
	if jb.tracer != nil {
		start = time.Now()
	}
	jb.live.Add(int64(len(tasks)))
	jb.recvIn.Add(uint64(len(tasks)))
	jb.pushGlobal(tasks...)
	if jb.tracer != nil {
		jb.tracer.Record(rt.ctlTrack(), obs.KindStealRecv, start, time.Since(start), uint64(len(tasks)), 0)
	}
}

// stealLocal pops up to want big tasks from the global queue, refilling
// from the spill list when the in-memory queue cannot cover the
// request. bigPending counts queued AND spilled tasks, so without the
// refill a machine whose backlog sits on disk is sized as a donor yet
// donates nothing — receivers starve while it pays spill I/O. The
// returned tasks remain counted in live until finishSteal.
func (rt *MachineRuntime) stealLocal(want int) []*Task {
	jb := rt.jb()
	batch := jb.qglobal.popBackBatch(want)
	for len(batch) < want {
		refill, ok, err := jb.lbig.refill()
		if err != nil {
			jb.fail(err)
			break
		}
		if !ok {
			break
		}
		need := want - len(batch)
		if need > len(refill) {
			need = len(refill)
		}
		batch = append(batch, refill[:need]...)
		jb.pushGlobal(refill[need:]...)
	}
	return batch
}

// finishSteal uncounts n tasks that were delivered to another machine.
// Call only after the receiver acknowledged delivery (its live/recvIn
// already include them).
func (rt *MachineRuntime) finishSteal(n int) {
	jb := rt.jb()
	jb.sentOut.Add(uint64(n))
	rt.release(jb, n)
}

// StealTo executes a coordinator steal directive on the donor side —
// the one way a task is stolen, in every composition: pop up to want
// big tasks and ship them to machine recv through the transport as
// GQS1 bytes, the same serialization as spill files. Batches whose
// encoding exceeds one wire frame ship as smaller chunks. Returns the
// number of tasks actually moved; on a transport error the unshipped
// remainder returns to the donor queue and the error is reported (the
// coordinator counts it and carries on).
func (rt *MachineRuntime) StealTo(recv, want int) (int, error) {
	if recv < 0 || recv >= rt.cfg.Machines || recv == rt.id {
		return 0, fmt.Errorf("gthinker: steal directive to invalid machine %d", recv)
	}
	jb := rt.jb()
	var start time.Time
	if jb.tracer != nil {
		start = time.Now()
	}
	batch := rt.stealLocal(want)
	moved := 0
	for len(batch) > 0 {
		k, err := rt.shipChunk(recv, batch)
		if err != nil {
			jb.pushGlobal(batch...)
			return moved, err
		}
		moved += k
		rt.finishSteal(k)
		batch = batch[k:]
	}
	if jb.tracer != nil && moved > 0 {
		jb.tracer.Record(rt.ctlTrack(), obs.KindStealSend, start, time.Since(start), uint64(recv), uint64(moved))
	}
	return moved, nil
}

// shipChunk sends the longest prefix of batch that encodes within one
// wire frame and returns its length. A single task too large for a
// frame is an error, not an infinite loop. A copy of each delivered
// chunk is retained keyed by its destination, so the tasks can be
// re-owned if that machine later dies.
func (rt *MachineRuntime) shipChunk(recv int, batch []*Task) (int, error) {
	enc := batchEncoders.Get().(*store.BatchEncoder)
	defer batchEncoders.Put(enc)
	k := len(batch)
	for {
		data, err := encodeTaskBatch(enc, batch[:k], rt.jb().app)
		if err != nil {
			return 0, err
		}
		if len(data) <= maxFramePayload {
			if err := rt.transport.SendTasks(recv, data); err != nil {
				return 0, err
			}
			rt.retain(recv, data)
			return k, nil
		}
		if k == 1 {
			return 0, fmt.Errorf("gthinker: task encodes to %d bytes, above the %d-byte frame limit", len(data), maxFramePayload)
		}
		k = (k + 1) / 2
	}
}

// LocalMetrics assembles this machine's metrics slice. Workers must be
// stopped first (Stop): busy times are plain fields owned by the worker
// goroutines while they run.
func (rt *MachineRuntime) LocalMetrics() *Metrics {
	procHeap.sampleNow()
	met := &Metrics{Counters: rt.liveCounters()}
	for _, w := range rt.workers {
		met.WorkerBusy = append(met.WorkerBusy, w.busy)
	}
	return met
}

// Samples renders this machine's rows of the counter table in the
// debug server's sample model — a qcworker's /metrics. Safe while
// mining runs; the method matches the obs.DebugServer source
// signature.
func (rt *MachineRuntime) Samples() []obs.Sample {
	c := rt.liveCounters()
	return c.samples(nil, machineLabel(rt.id), false)
}

// liveCounters reads every machine-side counter from its source: job
// atomics, the cache, the disk account, the transport, the tracer, and
// the heap sampler's last peak. Coordinator-owned rows stay zero.
func (rt *MachineRuntime) liveCounters() Counters {
	jb := rt.jb()
	c := Counters{
		TasksSpawned:      jb.spawnedTasks.Load(),
		SubtasksAdded:     jb.subtasksAdded.Load(),
		TasksFinished:     jb.tasksFinished.Load(),
		ComputeCalls:      jb.computeCalls.Load(),
		BigTasks:          jb.bigTasks.Load(),
		SmallTasks:        jb.smallTasks.Load(),
		LocalReads:        jb.localReads.Load(),
		RemoteFetches:     rt.transport.Fetches(),
		SpillFiles:        uint64(rt.disk.files.Load()),
		SpillBytesWritten: uint64(rt.disk.written.Load()),
		SpillBytesRead:    uint64(rt.disk.read.Load()),
		RefillBatches:     uint64(rt.disk.refills.Load()),
		PeakSpillBytes:    uint64(rt.disk.peak.Load()),
		PeakHeapAlloc:     uint64(procHeap.peak.Load()),
	}
	c.CacheHits, c.CacheMisses, c.CacheEvicted = rt.cache.stats()
	c.BatchedFetches = rt.transport.BatchedFetches()
	c.WireBytesSent, c.WireBytesReceived = rt.transport.WireBytes()
	if rs, ok := rt.transport.(RetryStats); ok {
		c.RetriedDials = rs.RetriedDials()
		c.RetriedOps = rs.RetriedOps()
	}
	c.TraceSpans, c.TraceDropped = jb.tracer.Counts()
	return c
}

// sweepSpill unlinks the spill files the current job still lists and
// takes them off the disk accounts; the directory stays. The job's
// workers must have stopped.
func (rt *MachineRuntime) sweepSpill() {
	rt.jb().lbig.removeAll()
	for _, w := range rt.workers {
		w.lsmall.removeAll()
	}
}

// CleanupSpill removes whatever the run left in this machine's spill
// directory. A clean run's spill files were already unlinked by their
// refills; leftovers exist only after cancellation or failure.
func (rt *MachineRuntime) CleanupSpill() {
	rt.sweepSpill()
	if rt.ownSpill {
		os.RemoveAll(rt.spillDir)
		return
	}
	// Best effort: fails harmlessly if a foreign file appeared.
	os.Remove(rt.spillDir)
}
