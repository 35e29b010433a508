// Package gthinkerqc is a Go reproduction of "Scalable Mining of
// Maximal Quasi-Cliques: An Algorithm-System Codesign Approach"
// (Guo, Yan, Özsu, Jiang — PVLDB 2020).
//
// Given a degree ratio γ ∈ [0.5, 1] and a minimum size τsize, the
// library finds every maximal γ-quasi-clique of an undirected graph:
// a connected subgraph in which each vertex is adjacent to at least
// ⌈γ·(n−1)⌉ of the other n−1 members.
//
// Two mining paths are provided:
//
//   - MineSerial runs the paper's corrected recursive algorithm
//     (Section 4) with all seven pruning-rule families on one
//     goroutine — the right tool up to medium graphs.
//   - MineParallel runs the same algorithm as a task-parallel job on a
//     reforged G-thinker engine (Sections 5–6) simulated in-process:
//     per-worker queues for small tasks, a global queue for big ones,
//     disk spilling, big-task stealing across simulated machines, and
//     the paper's time-delayed task decomposition, which splits any
//     task still running after τtime into independent subtasks.
//
// Quick start:
//
//	g, _ := gthinkerqc.LoadEdgeListFile("youtube.txt")
//	res, _ := gthinkerqc.MineParallel(g, gthinkerqc.Config{
//		Gamma: 0.9, MinSize: 18,
//	})
//	for _, qc := range res.Cliques {
//		fmt.Println(qc)
//	}
package gthinkerqc

import (
	"context"
	"time"

	"gthinkerqc/internal/graph"
	"gthinkerqc/internal/gthinker"
	"gthinkerqc/internal/metrics"
	"os/exec"

	"gthinkerqc/internal/miner"
	"gthinkerqc/internal/obs"
	"gthinkerqc/internal/quasiclique"
)

// Graph is an immutable simple undirected graph. Build one with
// NewGraphBuilder, the Load* functions, or the Generate* functions.
type Graph = graph.Graph

// V is a vertex identifier (dense uint32).
type V = graph.V

// NewGraphBuilder returns a builder for a graph over vertices [0, n);
// the universe grows as edges are added.
func NewGraphBuilder(n int) *graph.Builder { return graph.NewBuilder(n) }

// FromEdges builds a graph over [0, n) from an undirected edge list.
func FromEdges(n int, edges [][2]V) *Graph { return graph.FromEdges(n, edges) }

// Config is the complete configuration of a mining run. Zero values
// get sensible defaults; Gamma and MinSize are mandatory.
type Config struct {
	// Gamma is the degree-ratio threshold γ ∈ [0.5, 1].
	Gamma float64
	// MinSize is the minimum quasi-clique size τsize ≥ 2.
	MinSize int

	// TauSplit classifies tasks with |ext(S)| above it as "big": big
	// tasks go to the machine-wide global queue and are stolen across
	// machines. Default 256.
	TauSplit int
	// TauTime is the backtracking budget before time-delayed task
	// decomposition (Algorithm 10). Default 100 ms.
	TauTime time.Duration
	// SizeThresholdOnly selects the paper's baseline decomposition
	// (Algorithm 8): split any task with |ext(S)| > TauSplit without
	// mining it first.
	SizeThresholdOnly bool

	// Machines and WorkersPerMachine size the simulated cluster.
	// Defaults: 1 machine, 1 worker. Each machine owns the vertices
	// the splitmix hash of the vertex id assigns it, as G-thinker
	// hash-partitions its vertex table.
	Machines          int
	WorkersPerMachine int
	// QueueCap and BatchSize bound in-memory task queues and the
	// spill/steal batch (defaults 1024 / 32).
	QueueCap  int
	BatchSize int
	// SpillDir is where overflowing task queues spill; empty uses a
	// temp dir removed after the run.
	SpillDir string

	// FrameTimeout bounds each TCP frame exchange on the cluster's
	// data and control planes (default 30 s; negative disables).
	FrameTimeout time.Duration
	// DeadAfterPolls is how many consecutive failed status polls the
	// coordinator tolerates before declaring a worker dead and
	// recovering its partition on a survivor (default 5).
	DeadAfterPolls int
	// FaultPlan is a seeded fault-injection spec (chaos testing), e.g.
	// "7:dialfail=0.1,kill=1@3". Empty injects nothing.
	FaultPlan string

	// TracePath, when non-empty, turns on the engine's low-overhead
	// span tracer and writes the run's merged cluster timeline — every
	// worker's compute/spawn/spill/fetch/steal spans plus the
	// coordinator's scheduling events — to this file as Chrome
	// trace-event JSON (load it in Perfetto or chrome://tracing).
	TracePath string
	// DebugAddr, when non-empty, serves live debug HTTP endpoints for
	// the duration of the run: Prometheus-text /metrics fed from the
	// coordinator's per-machine status view, /healthz, expvar, and
	// net/http/pprof. Use ":0" for a dynamic port (logged to stderr).
	DebugAddr string

	// KeepNonMaximal skips the maximality post-filter, mirroring the
	// paper's released code.
	KeepNonMaximal bool
	// Ablations exposes the per-rule switches used by the ablation
	// benchmarks.
	Ablations quasiclique.Options
}

// Result is the outcome of a mining run.
type Result struct {
	// Cliques holds the maximal quasi-cliques (sorted vertex sets in
	// canonical order). With KeepNonMaximal it holds all candidates.
	Cliques [][]V
	// Candidates is the number of candidate emissions, repeats
	// included, before deduplication and the maximality filter — the
	// same count on the serial and the parallel paths. Decomposing
	// tasks adds emissions (see miner.Result), so it can differ between
	// two runs that return the same Cliques.
	Candidates int
	// Wall is the mining wall time (excluding graph loading).
	Wall time.Duration
	// Engine holds engine-level metrics; nil for serial runs.
	Engine *gthinker.Metrics
	// Tasks exposes per-root task timing, merged from every surviving
	// machine's report (worker processes too); nil for serial runs.
	Tasks *metrics.Recorder
	// SerialStats holds serial-path statistics; zero for parallel.
	SerialStats quasiclique.MineStats
}

func (c Config) params() quasiclique.Params {
	return quasiclique.Params{Gamma: c.Gamma, MinSize: c.MinSize}
}

func (c Config) options() quasiclique.Options {
	o := c.Ablations
	o.SkipMaximalityFilter = o.SkipMaximalityFilter || c.KeepNonMaximal
	return o
}

// MineSerial mines g on a single goroutine with the paper's recursive
// algorithm.
func MineSerial(g *Graph, cfg Config) (*Result, error) {
	return MineSerialContext(context.Background(), g, cfg)
}

// MineSerialContext is MineSerial with cancellation: when ctx is done,
// the search unwinds promptly and the partial (still valid, possibly
// incomplete) result set is returned together with ctx.Err().
func MineSerialContext(ctx context.Context, g *Graph, cfg Config) (*Result, error) {
	start := time.Now()
	sets, stats, err := quasiclique.MineGraphContext(ctx, g, cfg.params(), cfg.options())
	if err != nil && len(sets) == 0 {
		return nil, err
	}
	return &Result{
		Cliques:     sets,
		Candidates:  int(stats.Candidates),
		Wall:        time.Since(start),
		SerialStats: stats,
	}, err
}

// MineParallel mines g on the simulated G-thinker cluster.
func MineParallel(g *Graph, cfg Config) (*Result, error) {
	return MineParallelContext(context.Background(), g, cfg)
}

// MineParallelContext is MineParallel with cancellation; on a done
// context the engine drains promptly and the partial results are
// returned together with ctx.Err().
func MineParallelContext(ctx context.Context, g *Graph, cfg Config) (*Result, error) {
	start := time.Now()
	mcfg, ecfg := cfg.sessionConfigs()
	ecfg.SpillDir = cfg.SpillDir
	res, err := miner.MineContext(ctx, g, mcfg, ecfg)
	return cfg.result(start, res, err)
}

// sessionConfigs maps the public Config onto the session layer's two:
// the per-job mining parameters and the cluster's engine shape.
func (c Config) sessionConfigs() (miner.Config, gthinker.Config) {
	strategy := miner.TimeDelayed
	if c.SizeThresholdOnly {
		strategy = miner.SizeThreshold
	}
	return miner.Config{
			Params:   c.params(),
			Options:  c.options(),
			TauSplit: c.TauSplit,
			TauTime:  c.TauTime,
			Strategy: strategy,
		}, gthinker.Config{
			Machines:          c.Machines,
			WorkersPerMachine: c.WorkersPerMachine,
			QueueCap:          c.QueueCap,
			BatchSize:         c.BatchSize,
			FrameTimeout:      c.FrameTimeout,
			DeadAfterPolls:    c.DeadAfterPolls,
			FaultSpec:         c.FaultPlan,
			Trace:             c.TracePath != "",
			DebugAddr:         c.DebugAddr,
		}
}

// result turns a session's outcome into the public Result, exporting
// the trace if one was asked for. A job stopped early keeps both its
// partial result and its error.
func (c Config) result(start time.Time, res *miner.Result, err error) (*Result, error) {
	if res == nil {
		return nil, err
	}
	if werr := writeTrace(c.TracePath, res.Trace); werr != nil && err == nil {
		err = werr
	}
	return &Result{
		Cliques:    res.Cliques,
		Candidates: res.Candidates,
		Wall:       time.Since(start),
		Engine:     res.Engine,
		Tasks:      res.Recorder,
	}, err
}

// writeTrace exports a merged timeline as Chrome trace-event JSON.
func writeTrace(path string, tr *obs.Trace) error {
	if path == "" || tr == nil {
		return nil
	}
	return obs.WriteChromeTraceFile(path, tr)
}

// ClusterOptions shapes a multi-process mining run (MineCluster).
type ClusterOptions struct {
	// GraphPath is the binary graph file (GQC2, SaveBinaryFile) every
	// worker process maps.
	GraphPath string
	// WorkerCommand builds the worker process for one machine; it must
	// run cmd/qcworker (or equivalent) against manifestPath. Typically:
	//
	//	func(machine int, manifestPath string) *exec.Cmd {
	//		return exec.Command("qcworker", "-graph", graphPath,
	//			"-manifest", manifestPath, "-machine", strconv.Itoa(machine))
	//	}
	WorkerCommand func(machine int, manifestPath string) *exec.Cmd
	// ManifestDir receives the generated partition manifest and keeps
	// it afterwards; empty writes it to os.TempDir() and removes it when
	// the run ends.
	ManifestDir string
}

// MineCluster mines the graph at opts.GraphPath on cfg.Machines REAL
// worker OS processes: each spawned worker maps the graph file, serves
// one hash partition of the vertex table, and mines its own task
// queues, while this process runs the coordinator (termination
// detection, task-steal directives, metrics aggregation) over the TCP
// control plane. Results are bit-identical to MineParallel on the same
// graph. cfg.SpillDir is ignored — each worker spills into its own
// temporary directory. A run stopped by ctx returns its partial result
// together with the context's error, as MineParallelContext does.
func MineCluster(ctx context.Context, cfg Config, opts ClusterOptions) (*Result, error) {
	start := time.Now()
	mcfg, ecfg := cfg.sessionConfigs()
	res, err := miner.MineProcs(ctx, mcfg, ecfg, miner.ProcsConfig{
		GraphPath:   opts.GraphPath,
		Command:     opts.WorkerCommand,
		ManifestDir: opts.ManifestDir,
	})
	return cfg.result(start, res, err)
}

// IsQuasiClique reports whether the sorted vertex set S induces a
// γ-quasi-clique of g (Definition 1, including connectivity).
func IsQuasiClique(g *Graph, S []V, gamma float64) bool {
	return quasiclique.IsQuasiClique(g, S, gamma)
}

// FilterMaximal removes duplicates and non-maximal sets from a
// collection of sorted vertex sets.
func FilterMaximal(sets [][]V) [][]V { return quasiclique.FilterMaximal(sets) }
