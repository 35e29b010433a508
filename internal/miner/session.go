// One graph, many jobs: the session layer. A Session composes a
// cluster once and then runs any number of mining jobs against it —
// each job with its own parameters (γ, min-size, options, time budget)
// delivered per run, while the expensive state (the graph, the joined
// sockets, the warm remote-vertex cache) persists across jobs. There is
// one session type behind two constructors, which differ only in where
// the machines live: NewSession puts them in this process (reached by
// direct calls, or over loopback sockets with Config.InProcessTCP),
// StartProcsPool in qcworker child processes. After that a job takes
// the same path everywhere: every machine builds its application from
// the job's spec, gthinker.Cluster.RunJob runs it, and Mine merges the
// result frames the survivors report. The one-shot entry points
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
	// g is the graph the first Mine composes an in-process cluster
	// over; nil when the machines are worker processes.
	g *graph.Graph
	// numVerts is |V|, which bounds every vertex a result frame names.
	numVerts int
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
	return &Session{g: g, numVerts: g.NumVertices(), ecfg: ecfg}
}

// procsTimeout bounds a procs pool's worker startup (the ready line)
// and its teardown (the process exits).
const procsTimeout = 30 * time.Second

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
	s := &Session{ecfg: ecfg, numVerts: man.NumVertices, cleanup: func() {
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
	}, procsTimeout)
	if err == nil {
		// The join spec fixes the engine shape, with the loosest valid
		// mining parameters: every job delivers its own spec with opRun.
		boot := AppendJobSpec(nil, Config{Params: quasiclique.Params{Gamma: 1, MinSize: 2}}, ecfg)
		s.cluster, err = gthinker.StartProcsCluster(ecfg, procs, man.NumVertices, man.NumEdges, boot, procsTimeout)
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
		if s.cluster, err = gthinker.NewLocalCluster(s.g, s.ecfg, appFactory(s.g), workerResults); err != nil {
			return nil, err
		}
	}
	if cfg.TimeBudget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.TimeBudget)
		defer cancel()
	}
	out, runErr := s.cluster.RunJob(ctx, AppendJobSpec(nil, cfg, s.ecfg))
	if out == nil {
		return nil, runErr
	}

	// What the surviving machines reported: each one's survivors of its
	// own filter, its emission count and its per-root rows. A machine
	// the job lost reported nothing, so its partial work drops with it.
	res := &Result{Engine: out.Metrics, Trace: out.Trace, Recorder: metrics.NewRecorder()}
	var union [][]graph.V
	reported := 0
	for m, frame := range out.Results {
		if frame == nil {
			continue
		}
		sets, emitted, roots, err := DecodeResults(frame, s.numVerts)
		if err != nil {
			return nil, fmt.Errorf("miner: results from machine %d: %w", m, err)
		}
		union = append(union, sets...)
		res.Candidates += int(emitted)
		for _, r := range roots {
			res.Recorder.RootStarted(r.Root, r.SubSize)
			res.Recorder.TaskDone(r.Root, r.Mining, r.Materialize, r.Subtasks)
		}
		reported++
	}
	// One machine's frame is already Finalize output: the answer as
	// shipped. Sets from several meet in one more filter.
	res.Cliques = union
	if reported > 1 {
		res.Cliques = quasiclique.Finalize([][][]graph.V{union}, cfg.Options.SkipMaximalityFilter)
	}
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
