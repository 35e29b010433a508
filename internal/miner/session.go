// One graph, many jobs: the session layer. A Session composes a
// cluster once and then runs any number of mining jobs against it —
// each job with its own parameters (γ, min-size, options, time budget)
// delivered per run, while the expensive state (the graph, the joined
// sockets, the warm remote-vertex cache) persists across jobs. There is
// one session type behind two constructors, which differ only in where
// the machines live: NewSession puts them in this process (reached by
// direct calls, or over loopback sockets with Config.InProcessTCP),
// StartProcsPool in qcworker child processes. After that a job takes
// the same path everywhere: gthinker.Cluster.RunJob runs it, and Mine
// finalizes what the workers collected. The one-shot entry points
// (MineContext, MineProcs) open a session, run one job, and close it.
package miner

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"sync"
	"time"

	"gthinkerqc/internal/graph"
	"gthinkerqc/internal/gthinker"
	"gthinkerqc/internal/metrics"
	"gthinkerqc/internal/quasiclique"
	"gthinkerqc/internal/store"
)

// ValidateJob applies defaults and rejects unrunnable job parameters.
// It is the one job check: Session.Mine runs it, so a bad query fails
// identically on every composition, and serve.Server runs it at
// admission, so a query it would fail is refused before it is queued.
func ValidateJob(cfg Config) (Config, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Params.Validate(); err != nil {
		return cfg, err
	}
	if cfg.TauSplit < 1 {
		return cfg, fmt.Errorf("miner: TauSplit must be positive, got %d", cfg.TauSplit)
	}
	if cfg.TauTime < 0 {
		return cfg, fmt.Errorf("miner: TauTime must not be negative, got %v", cfg.TauTime)
	}
	if cfg.TimeBudget < 0 {
		return cfg, fmt.Errorf("miner: TimeBudget must not be negative, got %v", cfg.TimeBudget)
	}
	return cfg, nil
}

// ErrSessionClosed is returned by Mine after Close.
var ErrSessionClosed = errors.New("miner: session is closed")

// Session mines many jobs over one graph on one cluster. Mine calls
// are serialized: the cluster runs one job at a time (serve.Server
// queues overlapping submissions in front of one).
type Session struct {
	ecfg gthinker.Config
	// g is the graph when the machines live in this process: every job
	// then runs ONE application value shared by all of them, and its
	// results are read from it directly. Nil when the machines are
	// worker processes, which get a job spec and ship result frames.
	g *graph.Graph
	// cleanup runs after the cluster has closed (the pool's deployment
	// manifest); nil when there is nothing besides the cluster.
	cleanup func()

	mu      sync.Mutex
	cluster *gthinker.Cluster // composed on first use by NewSession
	closed  bool
}

// ProcsPool is the session StartProcsPool returns, under its former
// name.
type ProcsPool = Session

// NewSession prepares a session over g on an in-process cluster. The
// engine configuration (cluster shape, queue capacities, spill
// directory) is fixed for the session's lifetime; per-job knobs belong
// in each Mine call's Config. The cluster is composed by the first
// Mine.
func NewSession(g *graph.Graph, ecfg gthinker.Config) *Session {
	return &Session{g: g, ecfg: ecfg}
}

// bootstrapSpec is the spec workers receive at join, before any real
// query exists: it carries the cluster's engine shape (which IS fixed
// at join) plus the loosest valid mining parameters. Every job
// delivers its own spec with opRun.
func bootstrapSpec(ecfg gthinker.Config) []byte {
	return AppendJobSpec(nil, Config{Params: quasiclique.Params{Gamma: 1, MinSize: 2}}, ecfg)
}

// StartProcsPool deploys a cluster of real worker OS processes —
// partition manifest, worker processes, join handshake, transport
// wiring — and returns the session over it. Each worker mmaps the
// graph once; every job after that only ships a job spec, so the
// per-query cost is the query, not the deployment. ecfg fixes the
// engine shape for the pool's lifetime.
func StartProcsPool(ecfg gthinker.Config, pcfg ProcsConfig) (*ProcsPool, error) {
	if pcfg.Command == nil {
		return nil, fmt.Errorf("miner: procs pool needs a worker Command factory")
	}
	if ecfg.Machines < 1 {
		return nil, fmt.Errorf("miner: procs pool needs ecfg.Machines ≥ 1, got %d", ecfg.Machines)
	}
	if pcfg.ReadyTimeout == 0 {
		pcfg.ReadyTimeout = 30 * time.Second
	}
	if pcfg.ExitTimeout == 0 {
		pcfg.ExitTimeout = 30 * time.Second
	}

	// Fingerprint the graph for the manifest (the mapping is released
	// immediately — the coordinator never mines).
	mg, err := store.MapGraph(pcfg.GraphPath)
	if err != nil {
		return nil, err
	}
	man := &store.Manifest{
		NumVertices: mg.Graph().NumVertices(),
		NumEdges:    uint64(mg.Graph().NumEdges()),
		Machines:    make([]store.MachineSpec, ecfg.Machines),
	}
	mg.Close()
	// The manifest is per-deployment state: a unique name (two
	// concurrent coordinators must not read each other's deployment)
	// in the temp dir — the graph's directory may be read-only shared
	// storage — removed when the pool closes. Only an explicit
	// ManifestDir keeps the file for inspection.
	dir := pcfg.ManifestDir
	if dir == "" {
		dir = os.TempDir()
	}
	mf, err := os.CreateTemp(dir, "cluster-*.gqm")
	if err != nil {
		return nil, err
	}
	manifestPath := mf.Name()
	mf.Close()
	s := &Session{ecfg: ecfg, cleanup: func() {
		if pcfg.ManifestDir == "" {
			os.Remove(manifestPath)
		}
	}}
	if err := store.WriteManifestFile(manifestPath, man); err != nil {
		os.Remove(manifestPath)
		return nil, err
	}

	procs, err := gthinker.SpawnWorkerProcs(ecfg.Machines, func(machine int) *exec.Cmd {
		return pcfg.Command(machine, manifestPath)
	}, pcfg.ReadyTimeout)
	if err == nil {
		s.cluster, err = gthinker.StartProcsCluster(ecfg, procs, man.NumVertices, man.NumEdges, bootstrapSpec(ecfg), pcfg.ExitTimeout)
	}
	if err != nil {
		s.cleanup()
		return nil, err
	}
	return s, nil
}

// Mine runs one job to completion and returns its result. On
// cancellation or an expired TimeBudget it returns the (partial, still
// valid) results found so far together with the context error; the
// session stays reusable either way. A machine lost mid-job is
// recovered from (the job's results are complete) but leaves the
// session degraded: later jobs fail, because the dead machine's
// partitions were adopted for that job only. After Close it fails with
// ErrSessionClosed.
func (s *Session) Mine(ctx context.Context, cfg Config) (*Result, error) {
	cfg, err := ValidateJob(cfg)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrSessionClosed
	}
	if s.cluster == nil {
		if s.cluster, err = gthinker.NewLocalCluster(s.g, s.ecfg); err != nil {
			return nil, err
		}
	}
	var job gthinker.Job
	var local *app
	if s.g != nil {
		local = newApp(s.g, cfg, s.ecfg.TotalWorkers())
		job.App = local
	} else {
		job.Spec = AppendJobSpec(nil, cfg, s.ecfg)
	}
	if cfg.TimeBudget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.TimeBudget)
		defer cancel()
	}
	out, runErr := s.cluster.RunJob(ctx, job)
	if out == nil {
		return nil, runErr
	}

	// What the workers collected: one part per worker of the shared
	// application, or — from worker processes, where per-root recorder
	// data stays behind and each machine already filtered its own
	// workers' finds — the union of the machines' frames as one part.
	res := &Result{Engine: out.Metrics, Trace: out.Trace, Recorder: metrics.NewRecorder()}
	var parts [][][]graph.V
	var emitted int64
	if local != nil {
		parts, emitted = local.collected()
		res.Recorder = local.rec
	} else {
		var union [][]graph.V
		for m, frame := range out.Results {
			if len(frame) == 0 {
				continue // a machine the job lost
			}
			sets, n, err := DecodeResults(frame)
			if err != nil {
				return nil, fmt.Errorf("miner: results from machine %d: %w", m, err)
			}
			union = append(union, sets...)
			emitted += n
		}
		parts = [][][]graph.V{union}
	}
	res.Candidates = int(emitted)
	res.Cliques = quasiclique.Finalize(parts, cfg.Options.SkipMaximalityFilter)
	return res, runErr
}

// RunJob is Mine, under the name ProcsPool gave it.
func (s *Session) RunJob(ctx context.Context, cfg Config) (*Result, error) {
	return s.Mine(ctx, cfg)
}

// Close tears the session's cluster down: in-process machines sweep
// their spill files and close their sockets; worker processes are
// asked to exit, reaped (killed if they do not exit in time), and
// their deployment manifest removed. Idempotent; a session that never
// mined has nothing to close.
func (s *Session) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var err error
	if s.cluster != nil {
		err = s.cluster.Close()
	}
	if s.cleanup != nil {
		s.cleanup()
	}
	return err
}
