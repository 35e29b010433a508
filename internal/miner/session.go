// One graph, many jobs: the session layer. A Session (in-process) or
// ProcsPool (real worker OS processes) loads/joins a cluster once and
// then runs any number of mining jobs against it — each job with its
// own parameters (γ, min-size, options, time budget) delivered
// per-run, while the expensive state (the mmap'd graph, the joined
// sockets, the warm remote-vertex cache) persists across jobs. The
// one-shot entry points (MineContext, MineProcs) are thin wrappers
// that open a session, run one job, and close it.
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
	"gthinkerqc/internal/obs"
	"gthinkerqc/internal/quasiclique"
	"gthinkerqc/internal/store"
)

// validateJob applies defaults and rejects unrunnable job parameters;
// shared by every entry point so a bad query fails identically
// whether it arrives via Mine, a session, or a pool.
func validateJob(cfg Config) (Config, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Params.Validate(); err != nil {
		return cfg, err
	}
	if cfg.TauSplit < 1 {
		return cfg, fmt.Errorf("miner: TauSplit must be positive, got %d", cfg.TauSplit)
	}
	return cfg, nil
}

// jobContext applies the job's wall-clock budget, if any.
func jobContext(ctx context.Context, cfg Config) (context.Context, context.CancelFunc) {
	if cfg.TimeBudget > 0 {
		return context.WithTimeout(ctx, cfg.TimeBudget)
	}
	return ctx, func() {}
}

// abortedRun reports whether a run error means "stopped early but the
// partial results are valid" rather than "the run is broken".
func abortedRun(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Session mines many jobs over one graph on one in-process cluster.
// The engine (runtimes, partitions, vertex cache, and under
// InProcessTCP the sockets) is built lazily on the first Mine and
// reused — reset, not rebuilt — for every job after it. Not safe for
// concurrent Mine calls: the cluster runs one job at a time (wrap a
// Session in a gthinker.Scheduler to queue overlapping submissions).
type Session struct {
	g    *graph.Graph
	ecfg gthinker.Config

	mu  sync.Mutex
	eng *gthinker.Engine
}

// NewSession prepares a session over g. The engine configuration
// (cluster shape, queue capacities, spill directory) is fixed for the
// session's lifetime; per-job knobs belong in each Mine call's
// Config.
func NewSession(g *graph.Graph, ecfg gthinker.Config) *Session {
	return &Session{g: g, ecfg: ecfg}
}

// Mine runs one job to completion and returns its result. On
// cancellation or an expired TimeBudget it returns the (partial,
// still valid) results found so far together with the context error;
// the session stays reusable either way.
func (s *Session) Mine(ctx context.Context, cfg Config) (*Result, error) {
	cfg, err := validateJob(cfg)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	app := newApp(s.g, cfg, s.ecfg.TotalWorkers())
	if s.eng == nil {
		eng, err := gthinker.NewEngine(s.g, app, s.ecfg)
		if err != nil {
			return nil, err
		}
		s.eng = eng
	} else if err := s.eng.ResetJob(app); err != nil {
		return nil, err
	}
	ctx, cancel := jobContext(ctx, cfg)
	defer cancel()
	met, runErr := s.eng.RunJobContext(ctx)
	if runErr != nil && !abortedRun(runErr) {
		return nil, runErr
	}
	parts, emitted := app.collected()
	res := &Result{Candidates: int(emitted), Engine: met, Recorder: app.rec, Trace: s.eng.Trace()}
	res.Cliques = quasiclique.Finalize(parts, cfg.Options.SkipMaximalityFilter)
	return res, runErr
}

// Close tears the session's engine down (spill files, sockets).
// Idempotent; a session that never mined has nothing to close.
func (s *Session) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.eng != nil {
		s.eng.Close()
	}
}

// bootstrapSpec is the placeholder job spec workers receive at join,
// before any real query exists: it carries the cluster's engine shape
// (which IS fixed at join) plus the loosest valid mining parameters,
// so the worker can build its task codec and servers. Every real job
// replaces it wholesale via the per-run spec in opRun.
func bootstrapSpec(ecfg gthinker.Config) []byte {
	return AppendJobSpec(nil, Config{Params: quasiclique.Params{Gamma: 1, MinSize: 2}}, ecfg)
}

// ProcsPool mines many jobs on one cluster of real worker OS
// processes. StartProcsPool spawns and joins the workers once — each
// mmaps the graph, builds its servers, and wires its transports — and
// every RunJob after that only ships a job spec and runs the
// coordinator loop, so the per-query cost is the query, not the
// deployment. RunJob calls are serialized: the cluster mines one job
// at a time.
type ProcsPool struct {
	ecfg gthinker.Config
	pcfg ProcsConfig

	numVerts int
	numEdges uint64

	mu           sync.Mutex
	cc           *gthinker.ClusterClient
	procs        *gthinker.WorkerProcs
	manifestPath string
	keepManifest bool
	jobID        uint64
	dead         []bool // machines lost (and recovered from) in past jobs
	broken       error  // non-nil once the pool cannot take more jobs
	closed       bool
}

// StartProcsPool deploys the worker cluster: partition manifest,
// worker processes, join handshake, transport wiring. The returned
// pool is ready for RunJob. ecfg fixes the engine shape for the
// pool's lifetime.
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
	p := &ProcsPool{ecfg: ecfg, pcfg: pcfg}

	// Fingerprint the graph for the manifest (the mapping is released
	// immediately — the coordinator never mines), and derive the range
	// bounds here if a range partition was requested without explicit
	// bounds: the coordinator is the one process guaranteed to see the
	// graph before the manifest is written.
	mg, err := store.MapGraph(pcfg.GraphPath)
	if err != nil {
		return nil, err
	}
	p.numVerts = mg.Graph().NumVertices()
	p.numEdges = uint64(mg.Graph().NumEdges())
	if pcfg.RangePartition && ecfg.PartitionBounds == nil {
		ecfg.PartitionBounds = mg.Graph().RangeBounds(ecfg.Machines)
		p.ecfg = ecfg
	}
	mg.Close()

	man := &store.Manifest{
		Scheme:      store.OwnerSchemeSplitmix,
		NumVertices: p.numVerts,
		NumEdges:    p.numEdges,
		Machines:    make([]store.MachineSpec, ecfg.Machines),
	}
	if ecfg.PartitionBounds != nil {
		// Ownership travels in the manifest (scheme + bounds), not the
		// job spec: every worker derives it from the same file it
		// validated its graph against.
		man.Scheme = store.OwnerSchemeRange
		man.Bounds = ecfg.PartitionBounds
	}
	// The manifest is per-deployment state: a unique name (two
	// concurrent coordinators must not read each other's deployment)
	// in the temp dir — the graph's directory may be read-only shared
	// storage — removed when the pool closes. Only an explicit
	// ManifestDir keeps the file for inspection.
	dir := pcfg.ManifestDir
	p.keepManifest = dir != ""
	if dir == "" {
		dir = os.TempDir()
	}
	mf, err := os.CreateTemp(dir, "cluster-*.gqm")
	if err != nil {
		return nil, err
	}
	p.manifestPath = mf.Name()
	mf.Close()
	if err := store.WriteManifestFile(p.manifestPath, man); err != nil {
		os.Remove(p.manifestPath)
		return nil, err
	}

	procs, err := gthinker.SpawnWorkerProcs(ecfg.Machines, func(machine int) *exec.Cmd {
		return pcfg.Command(machine, p.manifestPath)
	}, pcfg.ReadyTimeout)
	if err != nil {
		p.removeManifest()
		return nil, err
	}
	p.procs = procs

	cc := gthinker.DialCluster(procs.ControlAddrs)
	fail := func(err error) (*ProcsPool, error) {
		cc.Close()
		procs.Kill()
		p.removeManifest()
		return nil, err
	}
	if err := cc.Configure(ecfg); err != nil {
		return fail(err)
	}
	vaddrs, taddrs, err := cc.JoinAll(ecfg.Machines, p.numVerts, p.numEdges, bootstrapSpec(ecfg))
	if err != nil {
		return fail(err)
	}
	if err := cc.StartTransports(vaddrs, taddrs); err != nil {
		return fail(err)
	}
	p.cc = cc
	return p, nil
}

func (p *ProcsPool) removeManifest() {
	if !p.keepManifest && p.manifestPath != "" {
		os.Remove(p.manifestPath)
	}
}

// Machines returns the cluster size.
func (p *ProcsPool) Machines() int { return p.ecfg.Machines }

// RunJob ships cfg to every worker as this job's spec, runs the
// coordinator loop to completion, and merges the workers' result
// flushes. On cancellation or an expired TimeBudget it returns the
// partial results with the context error and the pool stays usable.
// A worker lost mid-job is recovered from (the job's results are
// complete) but leaves the pool degraded: subsequent RunJob calls
// fail, because the dead process's partitions were adopted for that
// job only and a fresh job would mine an incomplete graph.
func (p *ProcsPool) RunJob(ctx context.Context, cfg Config) (*Result, error) {
	cfg, err := validateJob(cfg)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, fmt.Errorf("miner: procs pool is closed")
	}
	if p.broken != nil {
		return nil, fmt.Errorf("miner: procs pool is degraded: %w", p.broken)
	}
	p.jobID++
	ctx, cancel := jobContext(ctx, cfg)
	defer cancel()

	start := time.Now()
	if err := p.cc.RunJob(p.jobID, AppendJobSpec(nil, cfg, p.ecfg)); err != nil {
		p.broken = err
		return nil, err
	}
	perMachine, stats, runErr := gthinker.RunCoordinator(ctx, p.cc, p.ecfg)
	if runErr != nil && !abortedRun(runErr) {
		p.broken = runErr
		return nil, runErr
	}
	if stats.DeadMachines > 0 {
		p.dead = stats.Dead
		p.broken = fmt.Errorf("%d worker process(es) lost during job %d", stats.DeadMachines, p.jobID)
	}
	isDead := func(m int) bool { return m < len(stats.Dead) && stats.Dead[m] }

	// With tracing on, pull every surviving worker's span rings over
	// the control plane (valid now — the coordinator shut them down)
	// and merge them with the coordinator's own scheduling spans into
	// one cluster-wide timeline.
	var trace *obs.Trace
	if p.ecfg.Trace {
		traces := []*obs.Trace{stats.Trace}
		for m := 0; m < p.ecfg.Machines; m++ {
			if isDead(m) {
				continue
			}
			tr, terr := p.cc.CollectTrace(m)
			if terr != nil {
				p.broken = terr
				return nil, fmt.Errorf("miner: trace from machine %d: %w", m, terr)
			}
			traces = append(traces, tr)
		}
		trace = obs.Merge(traces...)
	}

	// Each machine ships what survived its own workers' filters (every
	// distinct candidate when the filter is skipped) and its emission
	// count; the union is one part of the final filter.
	var union [][]graph.V
	var emitted int64
	for m := 0; m < p.ecfg.Machines; m++ {
		if isDead(m) {
			continue
		}
		data, err := p.cc.Results(m)
		if err != nil {
			p.broken = err
			return nil, fmt.Errorf("miner: results from machine %d: %w", m, err)
		}
		sets, n, err := DecodeResults(data)
		if err != nil {
			p.broken = err
			return nil, fmt.Errorf("miner: results from machine %d: %w", m, err)
		}
		union = append(union, sets...)
		emitted += n
	}

	met := gthinker.MergeMachineMetrics(perMachine)
	met.Wall = time.Since(start)
	met.StealRounds = stats.StealRounds
	met.TasksStolen = stats.TasksStolen
	met.OffCycleSteals = stats.OffCycleSteals
	met.Recoveries = stats.Recoveries
	met.DeadMachines = stats.DeadMachines
	met.RetriedDials += p.cc.RetriedDials()
	met.RetriedOps += p.cc.RetriedOps()

	// Per-root recorder data stays in the worker processes; the
	// cluster result carries an empty recorder so downstream reporting
	// (experiments tables) need no special case.
	res := &Result{Candidates: int(emitted), Engine: met, Recorder: metrics.NewRecorder(), Trace: trace}
	res.Cliques = quasiclique.Finalize([][][]graph.V{union}, cfg.Options.SkipMaximalityFilter)
	return res, runErr
}

// Close asks every surviving worker process to exit, waits for them,
// and removes the deployment manifest. Processes that do not exit in
// time are killed. Idempotent.
func (p *ProcsPool) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil
	}
	p.closed = true
	var err error
	for m := 0; m < p.ecfg.Machines; m++ {
		if m < len(p.dead) && p.dead[m] {
			continue
		}
		if eerr := p.cc.Exit(m); eerr != nil && err == nil {
			err = fmt.Errorf("miner: exit machine %d: %w", m, eerr)
		}
	}
	if werr := p.procs.WaitLive(p.pcfg.ExitTimeout, p.dead); werr != nil {
		p.procs.Kill()
		if err == nil {
			err = werr
		}
	}
	p.cc.Close()
	p.removeManifest()
	return err
}
