package gthinker

import (
	"context"
	"errors"
	"fmt"
	"os"
	"time"

	"gthinkerqc/internal/graph"
	"gthinkerqc/internal/obs"
)

// Cluster is a composed cluster, ready to run jobs one at a time: a
// ControlPlane over its machines plus whatever must be torn down when
// it closes. The constructors differ only in where the machines live
// (NewLocalCluster: this process; StartProcsCluster: qcworker child
// processes) and how they are reached (direct calls or framed
// sockets); RunJob, which hands every machine a job spec and takes back
// its report, is the one job lifecycle all of them share. Not safe for
// concurrent use — serve.Server queues overlapping submissions in
// front of one.
type Cluster struct {
	cfg      Config
	ctl      ControlPlane
	teardown func(dead []bool) error

	// Machines living in this process (nil for child processes). They
	// spill to one shared disk, whose footprint disk tracks so
	// PeakSpillBytes is the process-wide peak of the sum rather than a
	// sum of per-machine peaks.
	hosts []*WorkerHost
	disk  diskAccount

	jobSeq uint64
	dead   []bool // machines lost to past jobs
	closed bool
}

// ErrClusterClosed is returned by RunJob after Close.
var ErrClusterClosed = errors.New("gthinker: cluster is closed")

// JobResult is what a job leaves behind.
type JobResult struct {
	// Metrics merges every surviving machine's counters with the
	// coordinator's scheduling counters.
	Metrics *Metrics
	// Trace is the cluster-wide span timeline (machines plus
	// coordinator) when Config.Trace is set; nil otherwise.
	Trace *obs.Trace
	// Results holds each machine's opaque result frame, in machine
	// order; nil for a machine the job lost.
	Results [][]byte
}

// NewLocalCluster composes cfg.Machines machines inside this process
// over g, which must stay immutable while the cluster lives. By default
// they are reached by direct calls, each built under cfg; with
// cfg.InProcessTCP each sits behind its own loopback listener and is
// joined and driven exactly like a qcworker process, taking cfg from
// the join. newApp is each machine's WorkerHostConfig.NewApp, as in a
// worker process.
func NewLocalCluster(g *graph.Graph, cfg Config, newApp func(spec []byte, workers int) (App, error)) (*Cluster, error) {
	return newLocalCluster(g, cfg, newApp, nil)
}

// newLocalCluster is NewLocalCluster with the direct-call composition's
// data plane injectable: wrap, when not nil, is handed each machine's
// loopback and returns the Transport that machine uses instead — a
// failing or hand-wired one in tests.
func newLocalCluster(g *graph.Graph, cfg Config, newApp func(spec []byte, workers int) (App, error), wrap func(machine int, lb *loopback) Transport) (*Cluster, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	// Loopbacks deliver stolen batches to c.hosts, so it is sized
	// before the first host exists.
	c := &Cluster{cfg: cfg, hosts: make([]*WorkerHost, cfg.Machines)}

	// One spill root holds every machine's spill subdirectory, so a
	// user-provided SpillDir ends empty and a cluster-owned temp dir is
	// removed wholesale.
	spillDir := cfg.SpillDir
	ownSpill := spillDir == ""
	if ownSpill {
		dir, err := os.MkdirTemp("", "gthinker-spill-")
		if err != nil {
			return nil, err
		}
		spillDir = dir
	} else if err := os.MkdirAll(spillDir, 0o755); err != nil {
		return nil, err
	}
	c.teardown = func([]bool) error {
		if cc, ok := c.ctl.(*ClusterClient); ok {
			cc.Close()
		}
		for _, h := range c.hosts {
			if h != nil {
				h.Close()
			}
		}
		if ownSpill {
			os.RemoveAll(spillDir)
		}
		return nil
	}

	for i, verts := range partitionAll(g.NumVertices(), cfg.Machines) {
		hc := WorkerHostConfig{
			Graph: g, MachineID: i, NewApp: newApp,
			spillDir:    spillDir,
			presetVerts: verts,
			diskParent:  &c.disk,
		}
		var h *WorkerHost
		var err error
		if cfg.InProcessTCP {
			h, err = StartWorkerHost(hc)
		} else {
			lb := newLoopback(g, cfg.Machines, c.hosts)
			var tr Transport = lb
			if wrap != nil {
				tr = wrap(i, lb)
			}
			h, err = newDirectHost(hc, cfg, tr)
		}
		if err != nil {
			c.teardown(nil)
			return nil, err
		}
		c.hosts[i] = h
	}
	if !cfg.InProcessTCP {
		c.ctl = &directControl{hosts: c.hosts}
		return c, nil
	}
	addrs := make([]string, len(c.hosts))
	for i, h := range c.hosts {
		addrs[i] = h.Addr()
	}
	cc, err := joinCluster(cfg, addrs, g.NumVertices(), uint64(g.NumEdges()))
	if err != nil {
		c.teardown(nil)
		return nil, err
	}
	c.ctl = cc
	return c, nil
}

// StartProcsCluster joins and wires the worker processes procs (see
// SpawnWorkerProcs) into a cluster, handing each the engine
// configuration cfg in the join, and takes ownership of them: they are
// killed if the handshake fails, and asked to exit (then reaped, within
// exitTimeout) when the cluster closes. numVerts and numEdges
// fingerprint the graph every worker must serve.
func StartProcsCluster(cfg Config, procs *WorkerProcs, numVerts int, numEdges uint64, exitTimeout time.Duration) (*Cluster, error) {
	cfg = cfg.withDefaults()
	cc, err := joinCluster(cfg, procs.Addrs, numVerts, numEdges)
	if err != nil {
		procs.Kill()
		return nil, err
	}
	return &Cluster{cfg: cfg, ctl: cc, teardown: func(dead []bool) error {
		var first error
		for m := 0; m < cc.Machines(); m++ {
			if m < len(dead) && dead[m] {
				continue
			}
			if err := cc.Exit(m); err != nil && first == nil {
				first = fmt.Errorf("gthinker: exit machine %d: %w", m, err)
			}
		}
		if err := procs.WaitLive(exitTimeout, dead); err != nil {
			procs.Kill()
			if first == nil {
				first = err
			}
		}
		cc.Close()
		return first
	}}, nil
}

// RunJob runs the job spec describes to completion — the one
// lifecycle every composition shares: start the job on every machine
// (each builds its application from spec), drive the
// coordinator loop (status polls, termination detection, steals,
// recovery), shut every machine down, which returns each survivor's
// report (metrics, spans, result frame), and merge. When ctx is cancelled or expires
// the machines stop promptly (in-flight Compute calls observe
// Ctx.Aborted) and what they had gathered is returned together with
// the context error; any other failure returns no result. The cluster
// stays usable after either, unless the job lost a machine: the
// survivors adopted its partitions for that job only (its result is
// complete), so later jobs are refused.
func (c *Cluster) RunJob(ctx context.Context, spec []byte) (*JobResult, error) {
	if c.closed {
		return nil, ErrClusterClosed
	}
	if c.dead != nil {
		return nil, fmt.Errorf("gthinker: cluster is degraded: lost a machine during job %d", c.jobSeq)
	}
	c.jobSeq++
	// Only the peak is per-job; current is zero here because every job
	// ends by sweeping what it left on disk (below).
	c.disk.peak.Store(0)
	start := time.Now()
	n := c.ctl.Machines()

	co := newCoordinator(c.ctl, c.cfg)
	var runErr error
	for m := 0; m < n && runErr == nil; m++ {
		runErr = c.ctl.Run(m, c.jobSeq, spec)
	}
	if runErr == nil {
		runErr = co.run(ctx)
	}
	reps, err := co.shutdown()
	if runErr == nil {
		runErr = err
	}
	// Join in-process workers from THIS goroutine too: the shutdown may
	// have crossed a socket, and whatever the workers wrote must happen
	// before RunJob returns. An aborted job's spill leftovers go now,
	// not at each machine's next reset: the machines share this
	// process's disk account, and the next job's peak-of-sum must not
	// start from files of this one.
	for _, h := range c.hosts {
		h.Runtime().Stop()
		h.Runtime().sweepSpill()
	}
	st := co.stats()
	c.dead = st.Dead
	if runErr != nil && !errors.Is(runErr, context.Canceled) && !errors.Is(runErr, context.DeadlineExceeded) {
		return nil, runErr
	}

	// A recovered-from machine has no report: the adopter re-mined its
	// partitions, so the corpse's partial work would double-count.
	per := make([]*Metrics, n)
	res := &JobResult{Results: make([][]byte, n)}
	traces := []*obs.Trace{st.Trace}
	for m, rep := range reps {
		if rep == nil {
			if co.alive[m] {
				return nil, err // a survivor did not answer its shutdown
			}
			continue
		}
		per[m], res.Results[m] = rep.Metrics, rep.Results
		traces = append(traces, rep.Trace)
	}
	if c.cfg.Trace {
		res.Trace = obs.Merge(traces...)
	}

	met := MergeMachineMetrics(per)
	met.Wall = time.Since(start)
	// The control plane's own retries join the coordinator's rows, and
	// everything merges by the same rules as a machine's counters.
	if rs, ok := c.ctl.(RetryStats); ok {
		st.RetriedDials = rs.RetriedDials()
		st.RetriedOps = rs.RetriedOps()
	}
	met.Counters.merge(&st.Counters)
	if c.hosts != nil {
		met.PeakSpillBytes = uint64(c.disk.peak.Load())
	}
	res.Metrics = met
	return res, runErr
}

// Close tears the cluster down: in-process machines stop, sweep their
// spill files, and close their sockets; worker processes are asked to
// exit and reaped. Idempotent.
func (c *Cluster) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	return c.teardown(c.dead)
}
