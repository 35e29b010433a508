// Package experiments regenerates every table and figure of the
// paper's evaluation (Section 7) against the synthetic dataset
// stand-ins, as views over numbers the engine already reports: a cell
// is a RunSpec mined on a Cluster through miner.Mine / miner.MineProcs,
// each experiment returns structured rows, and print.go / csv.go render
// them in the paper's layout. cmd/qcbench is the only caller. Anything
// about a single mine — fault plans, tracing, a debug server,
// timeouts — belongs to qcmine on a qcgen stand-in file, not here.
//
// Scaling note: the stand-ins are up to 25× smaller than the paper's
// graphs (datagen.Standin.ScaleNote), so the τtime sweeps use milliseconds where
// the paper uses seconds — the same numerals at 1/1000 scale, keeping
// the ratio of τtime to per-task mining time comparable.
package experiments

import (
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"time"

	"gthinkerqc/internal/datagen"
	"gthinkerqc/internal/graph"
	"gthinkerqc/internal/gthinker"
	"gthinkerqc/internal/metrics"
	"gthinkerqc/internal/miner"
	"gthinkerqc/internal/quasiclique"
)

// Cluster is the shape a cell runs on and how its machines are
// reached. The zero value of the last two fields composes the machines
// inside this process over direct calls.
type Cluster struct {
	Machines int
	Workers  int // per machine
	// Sockets puts every in-process machine behind loopback sockets
	// (gthinker.Config.InProcessTCP): remote pulls and stolen batches
	// cross the wire.
	Sockets bool
	// Worker, when set, makes the machines OS processes instead: it
	// builds the command hosting one machine over the cell's graph
	// file (qcbench passes miner.QCWorkerCommand; tests re-execute
	// themselves). Sockets is implied.
	Worker func(machine int, graphPath, manifestPath string) *exec.Cmd
}

// standins memoizes built stand-ins so grid cells share one graph.
var (
	standinMu sync.Mutex
	standins  = map[string]*graph.Graph{}
)

// buildDataset returns the named stand-in and its Table 2 parameters.
func buildDataset(name string) (*graph.Graph, datagen.Standin, error) {
	s, err := datagen.StandinByName(name)
	if err != nil {
		return nil, s, err
	}
	standinMu.Lock()
	defer standinMu.Unlock()
	g, ok := standins[name]
	if !ok {
		g = s.Build()
		standins[name] = g
	}
	return g, s, nil
}

// RunSpec describes one parallel mining run of an experiment cell.
// Zero Gamma, MinSize, TauSplit and TauTime take the stand-in's
// Table 2 parameters.
type RunSpec struct {
	Dataset  string
	Gamma    float64
	MinSize  int
	TauSplit int
	TauTime  time.Duration
	// SizeThresholdOnly selects Algorithm 8 instead of Algorithm 10.
	SizeThresholdOnly bool
	// KeepNonMaximal skips the maximality filter, mirroring the
	// paper's released code (its Table 2–4 result counts include
	// non-maximal quasi-cliques, which is why they vary with τtime).
	KeepNonMaximal bool
	// DisableGlobalQueue reverts the engine reforge (ablation).
	DisableGlobalQueue bool
	// NoDecomposition disables task decomposition entirely (τtime=∞):
	// the configuration that made the paper's first attempt stall on
	// a few expensive tasks (head-of-line blocking).
	NoDecomposition bool
}

// Outcome is what the tables report about one run, as the engine
// reported it.
type Outcome struct {
	Wall        time.Duration // gthinker.Metrics.Wall: the job, not cluster start-up
	Results     int           // final result count (respecting KeepNonMaximal)
	Candidates  int
	PeakRAM     uint64
	PeakDisk    int64
	TotalMining time.Duration
	TotalMater  time.Duration
	Subtasks    uint64
	Engine      *gthinker.Metrics
	Recorder    *metrics.Recorder
}

// Run mines one cell on the given cluster.
func Run(spec RunSpec, c Cluster) (Outcome, error) {
	g, s, err := buildDataset(spec.Dataset)
	if err != nil {
		return Outcome{}, err
	}
	mcfg := miner.Config{
		Params:   quasiclique.Params{Gamma: s.Gamma, MinSize: s.MinSize},
		Options:  quasiclique.Options{SkipMaximalityFilter: spec.KeepNonMaximal},
		TauSplit: s.TauSplit,
		TauTime:  s.TauTime,
	}
	if spec.Gamma != 0 {
		mcfg.Params.Gamma = spec.Gamma
	}
	if spec.MinSize != 0 {
		mcfg.Params.MinSize = spec.MinSize
	}
	if spec.TauSplit != 0 {
		mcfg.TauSplit = spec.TauSplit
	}
	if spec.TauTime != 0 {
		mcfg.TauTime = spec.TauTime
	}
	if spec.NoDecomposition {
		mcfg.TauTime = 365 * 24 * time.Hour
	}
	if spec.SizeThresholdOnly {
		mcfg.Strategy = miner.SizeThreshold
	}
	ecfg := gthinker.Config{
		Machines:           c.Machines,
		WorkersPerMachine:  c.Workers,
		DisableGlobalQueue: spec.DisableGlobalQueue,
		InProcessTCP:       c.Sockets,
	}
	var res *miner.Result
	if c.Worker == nil {
		res, err = miner.Mine(g, mcfg, ecfg)
	} else {
		res, err = mineProcs(g, mcfg, ecfg, c.Worker)
	}
	if err != nil {
		return Outcome{}, err
	}
	return Outcome{
		Wall:        res.Engine.Wall,
		Results:     len(res.Cliques),
		Candidates:  res.Candidates,
		PeakRAM:     res.Engine.PeakHeapAlloc,
		PeakDisk:    int64(res.Engine.PeakSpillBytes),
		TotalMining: res.Recorder.TotalMining(),
		TotalMater:  res.Recorder.TotalMaterialize(),
		Subtasks:    res.Engine.SubtasksAdded,
		Engine:      res.Engine,
		Recorder:    res.Recorder,
	}, nil
}

// mineProcs writes g where worker processes can map it — a temporary
// directory that lives as long as the cell — and mines it on them.
func mineProcs(g *graph.Graph, mcfg miner.Config, ecfg gthinker.Config,
	worker func(machine int, graphPath, manifestPath string) *exec.Cmd) (*miner.Result, error) {
	dir, err := os.MkdirTemp("", "qcbench-procs-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "graph.bin")
	if err := graph.WriteBinaryFile(path, g); err != nil {
		return nil, err
	}
	return miner.MineProcs(context.Background(), mcfg, ecfg, miner.ProcsConfig{
		GraphPath: path,
		Command: func(machine int, manifestPath string) *exec.Cmd {
			return worker(machine, path, manifestPath)
		},
	})
}
