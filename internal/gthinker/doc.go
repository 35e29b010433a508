// Package gthinker is a reimplementation of the reforged G-thinker
// engine of the paper's Section 5: a task-based parallel graph-mining
// runtime with
//
//   - a hash-partitioned vertex table (one partition per machine)
//     serving adjacency lists to tasks,
//   - a remote-vertex cache per machine with reference counting and
//     eviction,
//   - per-worker local task queues (Qlocal) for small tasks and one
//     machine-wide global queue (Qglobal) for big tasks — the paper's
//     key reforge, which removes head-of-line blocking behind
//     expensive tasks,
//   - disk spilling of task batches when queues overflow (Lsmall and
//     Lbig file lists), refilled in LIFO order to keep the volume of
//     partially-processed tasks small,
//   - prioritized scheduling: workers always prefer ready big tasks,
//     then ready small tasks, then popping big tasks, then local ones,
//     and stop a spawn batch as soon as it produces a big task,
//   - a coordinator that rebalances pending big tasks across machines
//     (task stealing) by one rule on every status scan — an idle
//     machine counts as one task below empty, so even a single queued
//     task moves to it — refilling donors from their spill lists so a
//     backlog on disk still donates,
//   - a batched RPC plane (tcp.go): a multi-op length-prefixed frame
//     protocol serving adjacency batches (one round trip per owning
//     machine per batch of C tasks, not per task or vertex), a task
//     channel shipping stolen big-task batches as GQS1 bytes (the
//     spill serialization reused as the wire format), health probes,
//     and the control plane below.
//
// # Architecture: one cluster, one job path
//
// The unit of execution is the MachineRuntime: ONE machine's vertex
// partition, queues, spill lists, cache, and mining workers. A
// runtime owns no cross-machine state — its data plane is the
// Transport interface (adjacency fetches in, stolen GQS1 task batches
// in and out). Every runtime is hosted by a WorkerHost, which answers
// the control plane for it: run a job, report status, execute a steal
// directive, absorb a dead peer, shut down, and hand over metrics,
// trace spans, and the application's result frame.
//
// A Cluster is a ControlPlane over N such hosts plus whatever must be
// closed with it. There is one way to run a job on it —
// Cluster.RunJob: hand every machine the job's spec, from which it
// builds its own application (WorkerHostConfig.NewApp), drive the
// coordinator loop, shut every machine down, and merge the survivors'
// reports, each carrying a result frame (App.Results) — and the
// constructors differ only along two axes:
//
//   - where the machines live: in this process (NewLocalCluster, all
//     machines sharing one graph, engine config and spill root) or in
//     qcworker child processes (StartProcsCluster, each mapping the
//     graph file and taking the engine config from the join);
//   - how they are reached: by direct calls (directControl invoking
//     the host's handlers as methods, a loopback Transport reading the
//     shared graph and handing each stolen GQS1 batch to the receiving
//     host — the default for local machines) or over framed sockets
//     (each host behind one listener that answers the coordinator's
//     ClusterClient and its peers' TCPTransports alike —
//     Config.InProcessTCP for local machines, always for processes).
//     Every remote pull, stolen batch, liveness poll, steal directive,
//     and machine report then crosses the wire.
//
// A steal takes one path in every composition: the donor's host runs
// the directive (MachineRuntime.StealTo), encodes the batch, ships it
// through its Transport, and keeps a copy until the job ends, so a
// receiver that dies re-homes the batch on its donor (RecoverPeer).
//
// # Scheduling: the worker loop and what wakes it
//
// A mining thread repeats one step (worker.step), in priority order:
// compute a ready big task (Bglobal), compute a ready small task
// (Blocal), resolve the tasks those computes left waiting on pulls
// (the pending list), pop the machine's big-task queue (Qglobal,
// refilled from Lbig when it runs low; a missed try-lock falls through
// instead of blocking), pop up to C tasks off its own queue (Qlocal,
// refilled from Lsmall and, when that is empty too, by the spawn scan).
// Whatever a step pops it resolves, as one batch (next section).
//
// The spawn scan (worker.spawnScan) claims root vertices off the
// machine's shared cursor — its own partition, then any partition
// adopted from a dead peer — and counts TASKS, not vertices: a stretch
// of vertices that fails the application's spawn test is skipped in
// place, and the scan ends only with C tasks queued, a big task queued
// (one refill must not flood Qglobal), the roots exhausted, or the job
// over. A query selective enough that no vertex spawns costs one pass
// over the partition, a few milliseconds per 100k vertices.
//
// A step that finds nothing parks the thread (worker.park): it
// registers as a sleeper, looks once more at everything another
// goroutine could have fed — Bglobal, Qglobal, Lbig, the spawn cursor,
// the adopted list; with blocking reads this time — and blocks. Every
// path that makes shared work visible wakes sleepers after publishing
// it (jobState.wake; one atomic load when nobody sleeps):
//
//   - a big task entering Qglobal: spawned, created by Compute, refilled
//     from Lbig, returned by a failed steal shipment;
//   - a stolen batch landing (DeliverTasks — the host's opTaskSteal
//     answer, over a socket or a loopback, and recovery's re-owned
//     batches);
//   - a resolved big task entering Bglobal;
//   - a dead peer's partition being adopted;
//   - the job ending: Stop and fail close one channel every parked
//     thread also waits on.
//
// Register-then-look on one side and publish-then-wake on the other
// mean a wake-up is never lost: either the sleeper's look sees the
// work or the producer's load sees the sleeper. A token can outlive
// the work it announced (another thread took it); the woken thread
// finds nothing and parks again. No thread spins, yields in a loop, or
// sleeps on a timer, so an idle machine uses no CPU and a task that
// arrives is picked up at once.
//
// # Data plane: resolving a batch
//
// A task's input is the adjacency lists it pulled, and for the tasks
// that dominate by count — a root and its two-hop neighbourhood — the
// input is most of the cost. So tasks are resolved a batch at a time
// (worker.resolveBatch, the only resolve path): the up to C =
// Config.BatchSize tasks one pop took off Qlocal, the pending list, or
// a single big task off Qglobal. One pass splits the batch's pulls
// into reads of the local table and remote lookups; one cache acquire
// pins every row already held; the lookups that missed are
// deduplicated and grouped by owner, and each owner is asked once
// (Transport.FetchAdjBatch) for the whole batch — an id wanted by k
// tasks crosses the wire once and counts one miss and k-1 hits; one
// insert pins the fetched rows, once per lookup. A task leaves with
// its frontier — [][]graph.V parallel to Task.Pulls, a window of the
// batch's one allocation — for its ready buffer: Bglobal if it is big,
// else the worker's Blocal. Everything else the resolve needs is the
// worker's reused scratch, so a warm batch allocates twice however
// many tasks and pulls it holds.
//
// The pending list is what keeps batches full after the first
// iteration. A task whose Compute asks for more pulls is not resolved
// on the spot; it joins its worker's pending list, and the step after
// Blocal drains resolves that list as one batch, before anything new
// is popped — started tasks finish first, and at most 2C small tasks
// live outside the spillable Qlocal.
//
// Resolving never computes, not even a task with nothing to pull: it
// goes to its ready buffer like the rest. Compute stays one task per
// step, so between any two computes a thread looks at Bglobal again,
// and a big task that becomes ready while the thread holds C resolved
// small ones runs next, not C tasks later. What a held batch does
// delay is the thread's next pop of Qglobal, where the tasks that fan
// out wait, so a batch is no longer than it pays to be: a popped task
// with nothing to pull ends its batch, and a stream of pull-less
// subtasks is popped one task at a time.
//
// A remote row is pinned in the cache once per (task, pull) from the
// batch's acquire or insert until that task's Compute returns, which
// releases the task's pins in one call; the frontier is valid for
// exactly that long. Rows of different tasks of one batch are unpinned
// at different times, as each is computed.
//
// A fetch that fails (an error, or the wrong number of lists) fails
// the job and drops the whole batch. Nothing the batch fetched was
// inserted — insertion waits until every owner has answered — and the
// pins its acquire took are released from the lists the batch already
// holds, so the cache ends neither poisoned nor pinned. Tasks another
// batch resolved earlier keep their pins until the next job's reset
// clears every pin (vertexCache.unpinAll).
//
// # Termination: signalled, then confirmed
//
// The coordinator makes cross-machine decisions exclusively from
// MachineStatus reports, and the status exchange is a long poll. A
// machine counts the tasks alive on it (live: queued, buffered,
// spilled, in flight, plus one for every spawn scan in progress). The
// decrement that takes live to zero on a machine whose roots are all
// spawned is the quiescence edge (MachineRuntime.release): nothing is
// left there unless another machine sends something. A status request
// that finds the machine quiescent, or its job failed or stopped, is
// answered at once; otherwise the reply is held until that edge, the
// job's end, or Config.StatusInterval — whichever comes first
// (MachineRuntime.awaitQuiet). One mechanism serves direct calls,
// loopback sockets and worker processes; there is no reverse channel.
//
// The coordinator scans all machines concurrently and back to back
// (coordinator.loop). While anything works, a scan lasts one
// StatusInterval — the cadence of steal rounds and the live metrics —
// and the scan during which the last machine drains returns the moment
// it does. Termination is declared when two consecutive scans agree
// that every machine has spawned its roots, counts zero live tasks,
// and has identical sentOut/recvIn transfer counters; the second
// follows the first immediately, since quiescent machines do not hold
// their replies. The prompt edge does not make
// the second scan redundant: the replies of one scan are read at
// different instants, so machine A can be read before a task is stolen
// into it and machine B after donating it — each quiescent when read,
// the task alive throughout. A stolen task is counted by its receiver
// (live, recvIn) before the donor uncounts it (live, sentOut), so the
// cluster-wide live sum never under-counts and any completed transfer
// moves a monotone counter: two all-quiescent scans with equal
// counters bracket a window in which no task existed anywhere.
//
// Every complete scan that does not confirm termination is also the
// master's steal round (Section 5), planned by one rule (planSteals):
// a live machine's load is its big-task backlog, less one if it is
// quiescent; the most and least loaded machines pair up, and a gap of
// at least two moves min(gap/2, the donor's backlog, C) tasks; both
// leave the pool and the next extremes pair. Counting an idle machine
// as -1 is what sends a lone task queued behind a busy worker to it,
// while two busy machines one task apart stay put. There is no steal
// timer: the scan cadence is the period. A round that moved tasks
// restarts the termination window; an idle round leaves it open.
//
// A failed poll is not held by anyone, so the coordinator spaces
// scans that found a machine unreachable one StatusInterval apart:
// that, times Config.DeadAfterPolls, is the failure-detection latency.
// Cancellation reaches a machine as Stop, which releases its parked
// threads and any held reply directly.
//
// # Deploying a multi-process cluster
//
// A deployment is described by a partition manifest (GQM3, see
// internal/store): the machine count, a graph fingerprint (|V|, |E|),
// and per machine its one listen address (empty = bind 127.0.0.1:0 and
// report it on the ready line). Every process derives owner(v) — the
// splitmix hash of v modulo the machine count — from the manifest
// alone.
//
// Single host, automatic (the coordinator spawns workers):
//
//	qcgen -o g.bin -type standin -name Enron
//	qcmine -input g.bin -gamma 0.85 -minsize 10 -procs 4 -threads 2
//
// Manual composition (what that command does):
//
//	qcworker -graph g.bin -manifest cluster.gqm -machine 0   # × N
//
// each worker prints "GTHINKER-WORKER READY addr=<addr>"; the
// coordinator dials every address (StartProcsCluster) and runs the
// lifecycle: opJoin (identity check + engine Config + the table of
// addresses it dialed; each worker validates the config, builds its
// runtime and its TCPTransport over that table, and from then on
// answers its peers' adjacency and task frames on the same listener),
// then per job opRun (job id + spec; the app is built, mining starts)
// → opStatus long polls / opStealDo directives → opShutdown, whose
// reply is the machine's whole report (failure, metrics, spans, result
// frame), and finally opExit. The join carries the engine shape,
// tracing and fault plan; the job spec carries only the job. An
// in-process machine takes the same steps, as method calls when
// reached directly. The op table lives in tcp.go; the app-opaque
// job-spec and result encodings for the quasi-clique miner live in
// internal/miner (AppendJobSpec, AppendResults).
//
// Engine mechanisms the paper evaluates all live above the Transport
// and ControlPlane interfaces, so a local cluster exercises the same
// code paths as the distributed deployment: substituting one for the
// other changes how bytes and calls travel, never what is computed,
// and CI holds every composition bit-identical to the serial miner.
//
// # Failure model and recovery
//
// Worker-machine loss is survivable; coordinator loss is not (a dead
// coordinator fails the job — restart it). The recovery invariant
// rests on two facts: results only leave a worker in its opShutdown
// reply, so a machine that dies mid-run has contributed NOTHING to the
// output yet and its entire partition can simply be mined again; and
// the app's final pass drops repeated results (the miner's
// quasiclique.Finalize sorts them canonically and keeps one of each),
// so any overlap between the dead machine's lost partial work and the
// re-mine changes nothing. Re-mining is therefore exact, not approximate — every
// composition's recovery runs are asserted bit-identical to the serial
// miner in CI.
//
// The lifecycle: the coordinator's status scan tolerates up to
// Config.DeadAfterPolls consecutive poll failures per machine
// (transient blips ride through; a single failed poll no longer
// aborts the run). At the threshold the machine is declared dead and
// one surviving machine is chosen as its adopter. Every survivor
// receives a RecoverDirective over opRecover and applies it in
// MachineRuntime.RecoverPeer: adjacency fetches addressed to the dead
// machine are redirected to a fallback owner (every worker maps the
// full GQC2 graph, so any machine can serve any partition), task
// batches this survivor had shipped to the dead machine — retained as
// encoded GQS1 copies at ship time — are decoded and re-owned
// locally, and the adopter re-spawns the dead machine's hash
// partitions after its own partition drains. Termination detection,
// stealing, shutdown, and metrics aggregation all mask dead machines
// thereafter. Recovery is always on; a run fails with a
// MachineLostError (errors.Is ErrMachineLost) only when no survivor
// is left to recover onto or a survivor refuses the directive.
//
// Transport hardening backs this up: every dial is bounded (5 s per
// attempt) and retried with jittered exponential backoff, every frame
// exchange carries a deadline (Config.FrameTimeout), and read-only ops
// (status, health, adjacency batches) retry on fresh connections —
// non-idempotent ops (join, steal, shutdown) never retry, so a fault
// there fails cleanly rather than double-applying. The seeded
// fault-injection harness (FaultPlan, Config.FaultSpec, qcmine
// -faultplan, carried to every worker in the job spec; kill=M@N aims
// at one machine) replays dial failures, frame delays, mid-frame
// resets, and worker kills deterministically; the chaos matrix in
// internal/miner asserts every plan ends bit-identical or cleanly
// errored, never hung.
//
// # Observability
//
// Three instruments share one design rule: zero cost when off, and no
// new synchronization on the mining hot path when on.
//
// Span tracing (Config.Trace; qcmine -trace, carried to every worker
// in the job spec) records fixed-size span records into per-worker
// ring buffers (internal/obs.Tracer): an atomic cursor claims slots,
// timestamps are absolute epoch nanoseconds so spans from different
// processes merge onto one timeline with no clock negotiation, and a
// disabled tracer is a nil pointer — Record is a single branch. The
// span taxonomy mirrors the engine's moving parts:
//
//   - spawn — one spawn scan over the partition (args: tasks
//     spawned, root vertices tested)
//   - compute — one app Compute call (arg: subtasks created)
//   - spill / refill — task batches crossing the disk boundary; a
//     spill span covers the encode and the file write of a batch from
//     either queue (Qlocal to Lsmall, Qglobal to Lbig), on the worker
//     that overflowed it
//   - resolve — one batch of tasks having its pulls resolved (args:
//     tasks, remote lookups); recorded only for a batch that pulled
//     something
//   - fetch — one batched remote adjacency round trip (args: owning
//     machine, vertex count), nested inside its batch's resolve
//   - steal-send / steal-recv — a stolen GQS1 batch leaving a donor /
//     landing at a receiver
//   - steal-round — one coordinator steal round that moved tasks
//     (args: tasks moved, directives planned)
//   - recover / recover-peer — the coordinator declaring a machine
//     dead and driving recovery / one survivor adopting its work
//
// A resolve span's self time — its duration less the fetches inside it
// — is the splitting, cache and bookkeeping work of the data plane. The
// standing benchmark names five kinds (compute, fetch, spill, refill,
// spawn) and reports the rest of a thread's time as
// gthinker.idle_share, so that number is parked time plus resolve self
// time; the trace JSON (qcmine -trace) separates the two.
//
// Pid is the machine id (-1 = coordinator), Tid the worker (negative
// = a machine's control track). After shutdown Cluster.RunJob merges
// every participant's snapshot into one Trace, taking each machine's
// spans from its shutdown report (a method call, or OTR1 bytes inside
// the opShutdown reply) — so `qcmine -procs 4 -trace out.json`
// writes ONE cluster-wide timeline, loadable in Perfetto or
// chrome://tracing (obs.WriteChromeTraceFile). Metrics.TraceSpans /
// TraceDropped account for ring overflow.
//
// Every engine counter is defined once, as a row of counterTable
// (metrics.go): its Counters field, series name, help text, and merge
// rule. The opShutdown and opStatus codecs, MergeMachineMetrics and
// both /metrics renderings are loops over that table, so it is the
// metric reference, and a series name means the same thing wherever
// it is scraped.
//
// The debug server (Config.DebugAddr; -debug-addr on qcmine and
// qcworker; ":0" picks a port and logs it) serves /metrics (Prometheus
// text), /healthz, /debug/vars (expvar), and /debug/pprof/* while the
// run is live. A qcworker exports its own runtime's rows; the
// coordinator exports every machine's rows under a machine label, its
// own rows unlabelled, and the gauges only a status poll knows
// (liveness, queue depths, backlog EWMA, spawn cursor).
//
// Live metrics piggyback on the status exchange: each MachineStatus
// carries the machine's Counters snapshot, read from the runtime's
// existing atomics, so the coordinator's LiveView is current to within
// one StatusInterval with zero extra RPCs.
package gthinker
