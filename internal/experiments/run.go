// Package experiments regenerates every table and figure of the
// paper's evaluation (Section 7) against the synthetic dataset
// stand-ins. Each experiment returns structured rows; print.go renders
// them in the paper's layout. cmd/qcbench and the repository-root
// benchmarks are thin wrappers over this package.
//
// Scaling note: the stand-ins are up to 25× smaller than the paper's
// graphs (datagen.Standin.ScaleNote), so the τtime sweeps use milliseconds where
// the paper uses seconds — the same numerals at 1/1000 scale, keeping
// the ratio of τtime to per-task mining time comparable.
package experiments

import (
	"context"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sync"
	"time"

	"gthinkerqc/internal/datagen"
	"gthinkerqc/internal/graph"
	"gthinkerqc/internal/gthinker"
	"gthinkerqc/internal/metrics"
	"gthinkerqc/internal/miner"
	"gthinkerqc/internal/quasiclique"
	"gthinkerqc/internal/store"
)

// Cluster is the simulated cluster shape used by an experiment.
type Cluster struct {
	Machines int
	Workers  int // per machine
}

// DefaultCluster is sized for small hosts; the scalability experiments
// override it.
var DefaultCluster = Cluster{Machines: 1, Workers: 2}

// graphCache avoids rebuilding stand-ins across grid cells.
var (
	cacheMu     sync.Mutex
	graphCache  = map[string]*graph.Graph{}
	binCacheDir string
	useMmap     = true
	useTCP      bool
	noSIMD      bool
	faultPlan   string
	frameTO     time.Duration
	deadAfter   int
	procsCount  int
	workerBin   string
	procsDir    string
	mappings    []*store.MappedGraph
	convBudget  int64
)

// SetBinaryCacheDir makes buildDataset persist stand-ins to dir in the
// binary CSR format and reload them on later runs (qcbench -bincache)
// — by default zero-copy via mmap (see SetUseMmap). Empty disables the
// disk cache.
func SetBinaryCacheDir(dir string) {
	cacheMu.Lock()
	binCacheDir = dir
	cacheMu.Unlock()
}

// SetUseMmap selects how cached binary graphs are loaded: mmap'd with
// the CSR arrays aliased into the mapping (default, qcbench -mmap), or
// read into the heap (qcbench -mmap=false). Mapped graphs stay mapped
// for the life of the process; CloseMappings releases them (tests).
func SetUseMmap(on bool) {
	cacheMu.Lock()
	useMmap = on
	cacheMu.Unlock()
}

// SetUseTCP selects the simulated cluster's data plane: the in-process
// loopback transport (default), or real loopback sockets (qcbench
// -tcp) — per-machine VertexServers and TaskServers with a
// TCPTransport, so every remote adjacency pull is a batched RPC and
// stolen big-task batches cross the wire as GQS1 bytes.
func SetUseTCP(on bool) {
	cacheMu.Lock()
	useTCP = on
	cacheMu.Unlock()
}

func tcpWanted() bool {
	cacheMu.Lock()
	defer cacheMu.Unlock()
	return useTCP
}

// SetProcs switches experiment runs to REAL multi-process deployment
// (qcbench -procs): every cell spawns n qcworker OS processes (the
// binary at bin), each mapping the cell's graph from a generated GQC2
// file and serving one vertex partition, composed by a partition
// manifest and the TCP control plane. n = 0 restores in-process
// execution. The cell's cluster shape is overridden to n machines.
func SetProcs(n int, bin string) {
	cacheMu.Lock()
	procsCount = n
	workerBin = bin
	cacheMu.Unlock()
}

func procsWanted() (int, string) {
	cacheMu.Lock()
	defer cacheMu.Unlock()
	return procsCount, workerBin
}

// SetNoSIMD forces the scalar bitset kernels for every subsequent cell
// (qcbench -nosimd): the flag is merged into each run's Options, so it
// reaches in-process workers and spawned qcworker processes alike.
func SetNoSIMD(on bool) {
	cacheMu.Lock()
	noSIMD = on
	cacheMu.Unlock()
}

func noSIMDWanted() bool {
	cacheMu.Lock()
	defer cacheMu.Unlock()
	return noSIMD
}

// SetFaultPlan injects a seeded fault plan into every subsequent cell
// (qcbench -faultplan): the spec reaches in-process TCP compositions
// and spawned qcworker processes alike through the engine config, so a
// chaos benchmark measures mining under injected faults end to end.
func SetFaultPlan(spec string) {
	cacheMu.Lock()
	faultPlan = spec
	cacheMu.Unlock()
}

// SetFrameTimeout overrides the cluster frame-exchange deadline for
// every subsequent cell (qcbench -frame-timeout); zero keeps the
// engine default.
func SetFrameTimeout(d time.Duration) {
	cacheMu.Lock()
	frameTO = d
	cacheMu.Unlock()
}

// SetDeadAfter overrides how many consecutive failed status polls the
// coordinator tolerates before declaring a worker dead (qcbench
// -dead-after); zero keeps the engine default.
func SetDeadAfter(n int) {
	cacheMu.Lock()
	deadAfter = n
	cacheMu.Unlock()
}

func faultConfig() (string, time.Duration, int) {
	cacheMu.Lock()
	defer cacheMu.Unlock()
	return faultPlan, frameTO, deadAfter
}

// SetConvertBudget routes binary-cache writes through the
// external-memory converter with this sort budget in bytes (qcbench
// -convertbudget): cache files are produced by sorted-run spill +
// k-way merge instead of an in-memory serialize, exercising the same
// ingestion path qcconvert uses. Zero (default) writes directly.
func SetConvertBudget(bytes int64) {
	cacheMu.Lock()
	convBudget = bytes
	cacheMu.Unlock()
}

// writeCacheFile persists one stand-in as GQC2, honoring the
// configured conversion budget. The two paths produce byte-identical
// files; the budgeted one just bounds memory while doing it.
func writeCacheFile(path string, g *graph.Graph) error {
	cacheMu.Lock()
	budget := convBudget
	cacheMu.Unlock()
	if budget > 0 {
		_, err := store.ConvertGraph(g, path, store.ConvertOptions{MemoryBudget: budget})
		return err
	}
	return graph.WriteBinaryFile(path, g)
}

// datasetFile ensures the named stand-in exists as a GQC2 file on disk
// (worker processes map their own copy) and returns its path. The
// bincache directory is reused when set; otherwise a per-run temp
// directory holds the files.
func datasetFile(name string) (string, error) {
	g, s, err := buildDataset(name)
	if err != nil {
		return "", err
	}
	cacheMu.Lock()
	dir := binCacheDir
	if dir == "" {
		if procsDir == "" {
			procsDir, err = os.MkdirTemp("", "qcbench-procs-")
			if err != nil {
				cacheMu.Unlock()
				return "", err
			}
		}
		dir = procsDir
	}
	cacheMu.Unlock()
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", s)
	path := filepath.Join(dir, fmt.Sprintf("%s-%016x.gqc", name, h.Sum64()))
	if _, err := os.Stat(path); err == nil {
		return path, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	if err := writeCacheFile(path, g); err != nil {
		return "", err
	}
	return path, nil
}

// CloseMappings drops every cached graph and munmaps the mapped ones.
// Graphs returned by earlier buildDataset calls become invalid.
func CloseMappings() {
	cacheMu.Lock()
	defer cacheMu.Unlock()
	graphCache = map[string]*graph.Graph{}
	for _, m := range mappings {
		m.Close()
	}
	mappings = nil
}

// CleanupProcs removes the temporary directory datasetFile created to
// hold worker-process graph files (a no-op when a bincache directory
// supplied them, or in in-process mode). qcbench defers it so -procs
// runs do not leak graph files to the system temp dir.
func CleanupProcs() {
	cacheMu.Lock()
	dir := procsDir
	procsDir = ""
	cacheMu.Unlock()
	if dir != "" {
		os.RemoveAll(dir)
	}
}

// buildDataset returns the named stand-in (cached) and its default
// parameters.
func buildDataset(name string) (*graph.Graph, datagen.Standin, error) {
	s, err := datagen.StandinByName(name)
	if err != nil {
		return nil, s, err
	}
	cacheMu.Lock()
	g, ok := graphCache[name]
	dir := binCacheDir
	mmapWanted := useMmap
	cacheMu.Unlock()
	if ok {
		return g, s, nil
	}
	path := ""
	if dir != "" {
		// Key the cache file by the stand-in's full parameter set, not
		// just its name, so editing a generator's parameters invalidates
		// the cached graph instead of silently reusing it. (Changing the
		// generation *code* without touching parameters still needs a
		// manual cache wipe.)
		h := fnv.New64a()
		fmt.Fprintf(h, "%+v", s)
		path = filepath.Join(dir, fmt.Sprintf("%s-%016x.gqc", name, h.Sum64()))
		if cached, err := loadCached(path, mmapWanted); err == nil {
			cacheMu.Lock()
			graphCache[name] = cached
			cacheMu.Unlock()
			return cached, s, nil
		}
	}
	g = s.Build()
	if path != "" {
		// Best effort: a failed write only costs the next run a rebuild.
		if err := os.MkdirAll(dir, 0o755); err == nil {
			_ = writeCacheFile(path, g)
		}
	}
	cacheMu.Lock()
	graphCache[name] = g
	cacheMu.Unlock()
	return g, s, nil
}

// loadCached loads one binary cache file, preferring the zero-copy
// mmap path. Mapped handles are retained so the aliased graphs stay
// valid for the whole process (experiment cells share them freely).
func loadCached(path string, mmapWanted bool) (*graph.Graph, error) {
	if !mmapWanted {
		return graph.ReadBinaryFile(path)
	}
	m, err := store.MapGraph(path)
	if err != nil {
		return nil, err
	}
	cacheMu.Lock()
	mappings = append(mappings, m)
	cacheMu.Unlock()
	return m.Graph(), nil
}

// RunSpec describes one parallel mining run of an experiment cell.
type RunSpec struct {
	Dataset  string
	Gamma    float64
	MinSize  int
	TauSplit int
	TauTime  time.Duration
	Cluster  Cluster
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
	Options         quasiclique.Options
}

// withDatasetDefaults fills unset fields from the stand-in's Table 2
// parameters.
func (r RunSpec) withDatasetDefaults(s datagen.Standin) RunSpec {
	if r.Gamma == 0 {
		r.Gamma = s.Gamma
	}
	if r.MinSize == 0 {
		r.MinSize = s.MinSize
	}
	if r.TauSplit == 0 {
		r.TauSplit = s.TauSplit
	}
	if r.TauTime == 0 {
		r.TauTime = s.TauTime
	}
	if r.Cluster == (Cluster{}) {
		r.Cluster = DefaultCluster
	}
	return r
}

// Outcome captures everything the tables report about one run.
type Outcome struct {
	Wall        time.Duration
	Results     int // final result count (respecting KeepNonMaximal)
	Candidates  int
	PeakRAM     uint64
	PeakDisk    int64
	TotalMining time.Duration
	TotalMater  time.Duration
	Subtasks    uint64
	Engine      *gthinker.Metrics
	Recorder    *metrics.Recorder
}

// Run executes one cell.
func Run(spec RunSpec) (Outcome, error) {
	g, s, err := buildDataset(spec.Dataset)
	if err != nil {
		return Outcome{}, err
	}
	spec = spec.withDatasetDefaults(s)
	opt := spec.Options
	opt.SkipMaximalityFilter = opt.SkipMaximalityFilter || spec.KeepNonMaximal
	opt.NoSIMD = opt.NoSIMD || noSIMDWanted()
	strategy := miner.TimeDelayed
	if spec.SizeThresholdOnly {
		strategy = miner.SizeThreshold
	}
	if spec.NoDecomposition {
		spec.TauTime = 365 * 24 * time.Hour
	}
	mcfg := miner.Config{
		Params:   quasiclique.Params{Gamma: spec.Gamma, MinSize: spec.MinSize},
		Options:  opt,
		TauSplit: spec.TauSplit,
		TauTime:  spec.TauTime,
		Strategy: strategy,
	}
	start := time.Now()
	var res *miner.Result
	plan, fto, dap := faultConfig()
	ecfg := gthinker.Config{
		Machines:           spec.Cluster.Machines,
		WorkersPerMachine:  spec.Cluster.Workers,
		DisableGlobalQueue: spec.DisableGlobalQueue,
		FaultSpec:          plan,
		FrameTimeout:       fto,
		DeadAfterPolls:     dap,
	}
	applyObs(&ecfg)
	if procs, bin := procsWanted(); procs > 0 {
		path, perr := datasetFile(spec.Dataset)
		if perr != nil {
			return Outcome{}, perr
		}
		ecfg.Machines = procs
		res, err = miner.MineProcs(context.Background(), mcfg, ecfg, miner.ProcsConfig{
			GraphPath: path,
			Command:   miner.QCWorkerCommand(bin, path),
		})
	} else {
		ecfg.InProcessTCP = tcpWanted()
		res, err = miner.Mine(g, mcfg, ecfg)
	}
	if err != nil {
		return Outcome{}, err
	}
	finishObs(spec.Dataset, res)
	return Outcome{
		Wall:        time.Since(start),
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
