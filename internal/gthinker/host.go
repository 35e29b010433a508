package gthinker

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gthinkerqc/internal/graph"
)

// WorkerHostConfig configures one hosted machine runtime.
type WorkerHostConfig struct {
	// Graph is the full graph this machine serves its partition of
	// (typically an mmap'd GQC2 file in a worker process, the shared
	// in-memory graph of an in-process cluster).
	Graph *graph.Graph
	// MachineID is the machine this host will serve. The join
	// handshake must name the same id.
	MachineID int
	// Machines, when non-zero, pins the expected cluster size; a join
	// naming a different size is rejected. Zero accepts the
	// coordinator's size (it is still fingerprint-checked against the
	// manifest by the process main).
	Machines int
	// Addr is the one listen address of the machine: control frames,
	// adjacency batches and stolen task batches all arrive there.
	// Empty means 127.0.0.1:0 (dynamic, reported on the ready line).
	Addr string

	// NewApp turns a job spec into the job's application for the
	// machine's WorkersPerMachine workers: the only way a job reaches a
	// machine, called only at opRun. cmd/qcworker and an in-process
	// cluster wire the miner's factory here alike.
	NewApp func(spec []byte, workers int) (App, error)

	// Kill is invoked when the fault plan's kill directive fires on
	// this machine. Nil defaults to tearing the host down in-process
	// (Close); a real worker process should exit hard instead
	// (cmd/qcworker sets os.Exit) so the crash looks like a genuine
	// worker loss to the coordinator.
	Kill func()

	// spillDir is the spill root an in-process cluster's machines
	// share; empty means a temporary directory of the machine's own.
	spillDir string
	// presetVerts hands the host a precomputed vertex partition (the
	// in-process cluster partitions all machines in one pass); nil
	// derives it from the ownership function at join.
	presetVerts []graph.V
	// diskParent, when set, is the shared-disk footprint account the
	// runtime's spill accounting reports into (machines of one process
	// share a disk).
	diskParent *diskAccount
}

// WorkerHost runs ONE MachineRuntime and answers the control plane for
// it (join/run/status/steal/recover/shutdown). Reached over
// sockets (StartWorkerHost) it owns one listener, which also answers
// its peers' adjacency batches and stolen task batches: cmd/qcworker
// runs exactly one such host per OS process, an InProcessTCP cluster N
// of them. Reached by direct calls (newDirectHost) the same handlers
// are invoked as methods and no socket exists. Either way a job takes
// the same path through it.
type WorkerHost struct {
	hc WorkerHostConfig

	ctl *controlServer // nil on a direct-call host

	mu     sync.Mutex
	rt     *MachineRuntime // nil until join
	tr     *TCPTransport
	fault  *FaultPlan
	killed bool

	// miningPolls counts status polls that observed spawning underway;
	// the fault plan's kill directive fires on the Nth such poll so a
	// seeded kill always lands mid-run, never before mining starts.
	miningPolls atomic.Uint64

	exitOnce sync.Once
	exitCh   chan struct{}
}

// StartWorkerHost begins listening on the host's address. The runtime
// and its transport are built at join and mine from each run.
func StartWorkerHost(hc WorkerHostConfig) (*WorkerHost, error) {
	if hc.Graph == nil {
		return nil, fmt.Errorf("gthinker: worker host needs a graph")
	}
	if hc.NewApp == nil {
		return nil, fmt.Errorf("gthinker: worker host needs a NewApp factory")
	}
	h := &WorkerHost{hc: hc, exitCh: make(chan struct{})}
	addr := hc.Addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ctl, err := serveControl(addr, h, hc.Graph.NumVertices())
	if err != nil {
		return nil, err
	}
	h.ctl = ctl
	return h, nil
}

// newDirectHost builds a host the coordinator reaches by direct method
// calls: the runtime is built at once under the cluster's cfg and wired
// to tr; nothing listens.
func newDirectHost(hc WorkerHostConfig, cfg Config, tr Transport) (*WorkerHost, error) {
	h := &WorkerHost{hc: hc, exitCh: make(chan struct{})}
	if err := h.build(cfg); err != nil {
		return nil, err
	}
	h.rt.SetTransport(tr)
	return h, nil
}

// Addr returns the host's bound address.
func (h *WorkerHost) Addr() string { return h.ctl.addr() }

// Runtime returns the hosted runtime once it has joined (and so has
// its transport); nil before, so a debug scrape racing the handshake
// sees "no runtime yet".
func (h *WorkerHost) Runtime() *MachineRuntime {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.rt
}

// WaitExit blocks until the coordinator sends opExit (or Close is
// called).
func (h *WorkerHost) WaitExit() { <-h.exitCh }

// Close tears the host down: its listener, transport, and the
// runtime's workers.
func (h *WorkerHost) Close() {
	h.exitOnce.Do(func() { close(h.exitCh) })
	if h.ctl != nil {
		h.ctl.close()
	}
	h.mu.Lock()
	rt, tr := h.rt, h.tr
	h.mu.Unlock()
	if rt != nil {
		rt.Stop()
	}
	if tr != nil {
		tr.Close()
	}
	// The host owns its machine's spill directory; without this sweep a
	// cancelled or failed run leaks spilled task files.
	if rt != nil {
		rt.CleanupSpill()
	}
}

// handleJoin checks the coordinator's identity, builds the runtime
// under the joined config, and wires its TCPTransport over the peer
// table: from here the machine answers data frames, and each opRun
// starts a job on it.
func (h *WorkerHost) handleJoin(r joinRequest) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.rt != nil {
		return fmt.Errorf("gthinker: machine %d joined twice", h.hc.MachineID)
	}
	if r.MachineID != h.hc.MachineID {
		return fmt.Errorf("gthinker: this host serves machine %d, not %d", h.hc.MachineID, r.MachineID)
	}
	machines := r.Config.Machines
	if h.hc.Machines != 0 && machines != h.hc.Machines {
		return fmt.Errorf("gthinker: manifest names %d machines, coordinator %d", h.hc.Machines, machines)
	}
	if machines < 1 || h.hc.MachineID >= machines {
		return fmt.Errorf("gthinker: machine %d cannot serve a cluster of %d", h.hc.MachineID, machines)
	}
	if len(r.Peers) != machines {
		return fmt.Errorf("gthinker: peer table of %d machines for a cluster of %d", len(r.Peers), machines)
	}
	if r.NumVerts != h.hc.Graph.NumVertices() || r.NumEdges != uint64(h.hc.Graph.NumEdges()) {
		return fmt.Errorf("gthinker: graph fingerprint mismatch: serving |V|=%d |E|=%d, coordinator expects |V|=%d |E|=%d",
			h.hc.Graph.NumVertices(), h.hc.Graph.NumEdges(), r.NumVerts, r.NumEdges)
	}
	if err := h.build(r.Config); err != nil {
		return err
	}
	// Two pools over the one peer table: a task send never queues
	// behind a fetch to the same machine.
	tr := NewTCPTransport(r.Peers, h.hc.Graph.NumVertices())
	tr.SetTaskAddrs(r.Peers)
	tr.Configure(h.rt.cfg.FrameTimeout, h.fault)
	h.tr = tr
	h.rt.SetTransport(tr)
	return nil
}

// build constructs the hosted runtime under the coordinator's engine
// configuration, spilling where the host says; newMachineRuntime
// validates cfg (its fault plan included) before it allocates
// anything. Caller holds h.mu (or is the constructor).
func (h *WorkerHost) build(cfg Config) error {
	cfg.SpillDir = h.hc.spillDir
	rt, err := newMachineRuntime(h.hc.Graph, cfg, h.hc.MachineID, h.hc.presetVerts)
	if err != nil {
		return err
	}
	rt.disk.parent = h.hc.diskParent
	h.rt = rt
	h.fault, _ = ParseFaultPlan(rt.cfg.FaultSpec)
	return nil
}

// handleRun starts mining job `job`: the runtime is reset onto a fresh
// jobState (same graph, same partition, warm cache) running the
// application NewApp makes of this job's spec. This is what makes one
// joined machine serve many queries without re-handshaking.
func (h *WorkerHost) handleRun(job uint64, spec []byte) error {
	rt, err := h.runtime()
	if err != nil {
		return err
	}
	app, err := h.hc.NewApp(spec, rt.cfg.WorkersPerMachine)
	if err != nil {
		return err
	}
	if err := rt.ResetJob(app, job); err != nil {
		return err
	}
	h.miningPolls.Store(0)
	return rt.Start()
}

func (h *WorkerHost) runtime() (*MachineRuntime, error) {
	if rt := h.Runtime(); rt != nil {
		return rt, nil
	}
	return nil, fmt.Errorf("gthinker: machine %d has not joined", h.hc.MachineID)
}

// handleAdjBatch answers a peer's adjacency batch from the served
// graph, once joined.
func (h *WorkerHost) handleAdjBatch(payload []byte) ([]byte, error) {
	if _, err := h.runtime(); err != nil {
		return nil, err
	}
	resp, _, err := adjBatch(h.hc.Graph, payload)
	return resp, err
}

// handleTasks delivers a batch of big tasks a peer stole for this
// machine, once joined.
func (h *WorkerHost) handleTasks(payload []byte) error {
	rt, err := h.runtime()
	if err != nil {
		return err
	}
	_, err = deliverBatch(payload, rt, rt.g.NumVertices(), rt.DeliverTasks)
	return err
}

// jobRuntime is runtime() plus the version-4 job check: a frame
// stamped with a job this host is not on is answered with an error,
// never with another job's state.
func (h *WorkerHost) jobRuntime(job uint64) (*MachineRuntime, error) {
	rt, err := h.runtime()
	if err != nil {
		return nil, err
	}
	if cur := rt.JobID(); job != cur {
		return nil, fmt.Errorf("gthinker: machine %d is on job %d, not job %d", h.hc.MachineID, cur, job)
	}
	return rt, nil
}

func (h *WorkerHost) handleStatus(job uint64) (MachineStatus, error) {
	rt, err := h.jobRuntime(job)
	if err != nil {
		return MachineStatus{}, err
	}
	h.mu.Lock()
	killed := h.killed
	h.mu.Unlock()
	if killed {
		return MachineStatus{}, fmt.Errorf("gthinker: fault injection: machine %d is dead", h.hc.MachineID)
	}
	// A long poll: this is how every composition's coordinator learns
	// of termination and failure the moment they happen.
	rt.awaitQuiet(rt.cfg.StatusInterval)
	st := rt.Status()
	// Kill hook: count only polls that observed mining underway, so a
	// seeded kill=M@N lands on the Nth mid-run poll and the crash
	// exercises real recovery (respawn + redirect), not a startup race.
	if h.fault != nil && st.Spawned > 0 {
		n := h.miningPolls.Add(1)
		if h.fault.ShouldKill(h.hc.MachineID, n) {
			h.mu.Lock()
			h.killed = true
			kill := h.hc.Kill
			h.mu.Unlock()
			if kill != nil {
				kill()
			} else {
				// In-process: tear the host down off this goroutine —
				// Close blocks on the listener's handler waitgroup,
				// which includes the connection running THIS handler.
				go h.Close()
			}
			return MachineStatus{}, fmt.Errorf("gthinker: fault injection: machine %d killed on poll %d", h.hc.MachineID, n)
		}
	}
	return st, nil
}

// handleRecover applies a coordinator recovery directive to the hosted
// runtime: redirect fetches for the dead machine, re-deliver retained
// batches, and (on the adopter) re-own the dead machine's partitions.
func (h *WorkerHost) handleRecover(d RecoverDirective) error {
	rt, err := h.runtime()
	if err != nil {
		return err
	}
	return rt.RecoverPeer(d)
}

func (h *WorkerHost) handleSteal(job uint64, recv, want int) (int, error) {
	rt, err := h.jobRuntime(job)
	if err != nil {
		return 0, err
	}
	return rt.StealTo(recv, want)
}

// handleShutdown stops and joins the machine's workers and reports the
// job: its failure, metrics, spans and result frame.
func (h *WorkerHost) handleShutdown(job uint64) (*MachineReport, error) {
	rt, err := h.jobRuntime(job)
	if err != nil {
		return nil, err
	}
	rt.Stop()
	rep := &MachineReport{Metrics: rt.LocalMetrics(), Trace: rt.TraceSnapshot()}
	if err := rt.Err(); err != nil {
		rep.Failure = err.Error()
	}
	if app := rt.jb().app; app != nil { // nil until the machine's first job
		if rep.Results, err = app.Results(); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// handleExit releases WaitExit. The listener calls it only after
// the opExit acknowledgement is flushed: the host's main goroutine
// answers WaitExit with Close, which would otherwise cut the control
// connection under its own ack.
func (h *WorkerHost) handleExit() {
	h.exitOnce.Do(func() { close(h.exitCh) })
}

// WorkerReadyPrefix is the line a worker process prints on stdout once
// its host listens; the text after it is the machine's one address,
// which the coordinator dials and hands every peer in the join.
const WorkerReadyPrefix = "GTHINKER-WORKER READY addr="

// PrintWorkerReady emits the readiness line for w's host.
func PrintWorkerReady(w io.Writer, h *WorkerHost) {
	fmt.Fprintf(w, "%s%s\n", WorkerReadyPrefix, h.Addr())
}

// WorkerProcs manages a set of spawned worker OS processes. Each
// child is reaped exactly once (exec.Cmd.Wait is not safe to call
// concurrently): Kill and Wait both funnel through the per-child
// reap, so a timeout-then-kill sequence cannot race the reaper.
type WorkerProcs struct {
	cmds     []*exec.Cmd
	waitOnce []sync.Once
	waitErr  []error
	// Addrs holds each worker's reported address — the one it serves
	// control, adjacency and task frames on — in machine order.
	Addrs []string
}

// reap waits for child i exactly once and returns its exit error.
func (p *WorkerProcs) reap(i int) error {
	p.waitOnce[i].Do(func() { p.waitErr[i] = p.cmds[i].Wait() })
	return p.waitErr[i]
}

// signalKill sends SIGKILL to every child without reaping.
func (p *WorkerProcs) signalKill() {
	for _, cmd := range p.cmds {
		if cmd.Process != nil {
			cmd.Process.Kill()
		}
	}
}

// SpawnWorkerProcs launches one worker process per machine via the
// command factory, scans each child's stdout for its readiness line,
// and returns the collected addresses. The factory's command
// must print WorkerReadyPrefix+addr on stdout (cmd/qcworker does);
// stderr passes through to this process. On any error the children
// already spawned are killed.
func SpawnWorkerProcs(machines int, command func(machine int) *exec.Cmd, timeout time.Duration) (*WorkerProcs, error) {
	p := &WorkerProcs{
		Addrs:    make([]string, machines),
		waitOnce: make([]sync.Once, machines),
		waitErr:  make([]error, machines),
	}
	type ready struct {
		machine int
		addr    string
		err     error
	}
	readyCh := make(chan ready, machines)
	for i := 0; i < machines; i++ {
		cmd := command(i)
		if cmd.Stderr == nil {
			cmd.Stderr = os.Stderr
		}
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			p.Kill()
			return nil, err
		}
		if err := cmd.Start(); err != nil {
			p.Kill()
			return nil, fmt.Errorf("gthinker: spawn worker %d: %w", i, err)
		}
		p.cmds = append(p.cmds, cmd)
		go func(machine int, r io.Reader) {
			sc := bufio.NewScanner(r)
			for sc.Scan() {
				line := sc.Text()
				if addr, ok := strings.CutPrefix(line, WorkerReadyPrefix); ok {
					readyCh <- ready{machine: machine, addr: addr}
					// Keep draining so the child never blocks on a full
					// stdout pipe.
					for sc.Scan() {
					}
					return
				}
			}
			readyCh <- ready{machine: machine, err: fmt.Errorf("gthinker: worker %d exited before reporting ready", machine)}
		}(i, stdout)
	}
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for n := 0; n < machines; n++ {
		select {
		case r := <-readyCh:
			if r.err != nil {
				p.Kill()
				return nil, r.err
			}
			p.Addrs[r.machine] = r.addr
		case <-deadline.C:
			p.Kill()
			return nil, fmt.Errorf("gthinker: workers not ready after %v", timeout)
		}
	}
	return p, nil
}

// Kill terminates every child immediately and reaps it.
func (p *WorkerProcs) Kill() {
	p.signalKill()
	for i := range p.cmds {
		p.reap(i)
	}
}

// WaitLive reaps every child, failing if any exits non-zero or the
// timeout passes (stragglers are then killed and reaped before
// returning). It first kills the children the dead mask marks
// (machines the coordinator declared lost — a crashed worker already
// exited; a fault-injected one may be wedged) and ignores their exit
// status. nil dead means all must exit clean.
func (p *WorkerProcs) WaitLive(timeout time.Duration, dead []bool) error {
	for i, cmd := range p.cmds {
		if i < len(dead) && dead[i] && cmd.Process != nil {
			cmd.Process.Kill()
		}
	}
	done := make(chan error, 1)
	go func() {
		var first error
		for i := range p.cmds {
			err := p.reap(i)
			if i < len(dead) && dead[i] {
				continue
			}
			if err != nil && first == nil {
				first = fmt.Errorf("gthinker: worker %d: %w", i, err)
			}
		}
		done <- first
	}()
	select {
	case err := <-done:
		return err
	case <-time.After(timeout):
		// Unblock the reaper goroutine by killing the stragglers, then
		// let IT finish the reaps — cmd.Wait must not run twice.
		p.signalKill()
		<-done
		return fmt.Errorf("gthinker: workers still running after %v", timeout)
	}
}
