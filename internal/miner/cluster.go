// Cluster glue: the app-level halves of the cluster protocol. The
// gthinker control plane ships two opaque byte blobs — the job spec
// every machine builds its app from, and the result frame it reports
// at shutdown — and this file owns both encodings for the quasi-clique
// miner, the factory every machine runs, the worker-process entry
// point (cmd/qcworker) and the one-shot MineProcs.
package miner

import (
	"context"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"

	"gthinkerqc/internal/graph"
	"gthinkerqc/internal/gthinker"
	"gthinkerqc/internal/metrics"
	"gthinkerqc/internal/store"
)

// jobSpecMagic versions the miner job spec carried inside opRun. QJS2
// dropped QJS1's spill-format byte; QJS3 dropped the two kernel flags
// and the two dense-kernel scalars; QJS4 dropped the steal period, the
// steal hysteresis streak and the stealing and recovery opt-outs; QJS5
// dropped the dial timeout; QJS6 dropped the engine config, which the
// join carries. QJS7 and QJS8 have QJS6's fields: they version the
// task payload (spillcodec.go), because the app that decodes the spec
// is the app that decodes the payloads a steal moves. QJS7 came with a
// subtask's Sub as bit rows; QJS8 dropped the flags word and the
// iteration-2 partial-subgraph section, so a record is a root or a
// subtask.
// A worker built for another layout refuses the job at opRun instead
// of mis-parsing every field after it, or a task, later.
const jobSpecMagic = "QJS8"

// jobSpecFields is the QJS8 layout: the magic, then every field of the
// miner config that crosses the wire, in order. It carries the job
// only; the engine shape, tracing and fault plan a machine runs under
// come from the join.
func jobSpecFields(w *store.Walker, cfg *Config) {
	o := &cfg.Options
	w.Const(jobSpecMagic, "job spec version")
	w.Float(&cfg.Params.Gamma)
	store.U32(w, &cfg.Params.MinSize)
	store.U32(w, &cfg.TauSplit)
	store.U64(w, &cfg.TauTime)
	store.U8(w, &cfg.Strategy)
	w.Flags(4, &o.DisableKCore, &o.DisableLookahead, &o.DisableCoverVertex,
		&o.DisableCriticalVertex, &o.DisableUpperBound, &o.DisableLowerBound,
		&o.DisableDegreePruning, &o.QuickCompat, &o.SkipMaximalityFilter)
	store.U64(w, &cfg.TimeBudget)
}

// AppendJobSpec encodes the mining job for opRun, so every machine
// mines with exactly the coordinator's parameters — there is one
// source of truth and it is not N command lines.
func AppendJobSpec(dst []byte, cfg Config) []byte {
	cfg = cfg.withDefaults()
	return store.Encode(dst, func(w *store.Walker) { jobSpecFields(w, &cfg) })
}

// DecodeJobSpec reverses AppendJobSpec. A spec of another version is
// refused: coordinator and qcworker must come from the same build.
func DecodeJobSpec(data []byte) (cfg Config, err error) {
	err = store.Decode(data, "QJS8 job spec", func(w *store.Walker) { jobSpecFields(w, &cfg) })
	return cfg, err
}

// resultsFields is the QRS3 layout of the result frame in one
// machine's shutdown report: how many candidates its workers emitted
// (the sets are survivors of the machine's own filter, so the count
// cannot be recovered from them), the sets, and one row per root task
// it worked on: root, subgraph size, mining ns, materialize ns,
// subtasks.
func resultsFields(w *store.Walker, sets *[][]graph.V, emitted *int64, roots *[]metrics.RootStat) {
	w.Const("QRS3", "results version")
	store.U64(w, emitted)
	store.Slice(w, sets, math.MaxInt32, 4, func(s *[]graph.V) {
		w.U32s(s, w.Count(len(*s), math.MaxInt32, 4))
	})
	store.Slice(w, roots, math.MaxInt32, 28, func(r *metrics.RootStat) {
		store.U32(w, &r.Root)
		store.U32(w, &r.SubSize)
		store.U64(w, &r.Mining)
		store.U64(w, &r.Materialize)
		store.U32(w, &r.Subtasks)
	})
}

// AppendResults encodes one machine's result frame.
func AppendResults(dst []byte, sets [][]graph.V, emitted int64, roots []metrics.RootStat) []byte {
	return store.Encode(dst, func(w *store.Walker) { resultsFields(w, &sets, &emitted, &roots) })
}

// DecodeResults reverses AppendResults for a graph of numVerts
// vertices. A frame is refused if a set is not strictly ascending, or
// a set member, a root or a subgraph size lies past the graph.
func DecodeResults(data []byte, numVerts int) (sets [][]graph.V, emitted int64, roots []metrics.RootStat, err error) {
	err = store.Decode(data, "QRS3 results", func(w *store.Walker) { resultsFields(w, &sets, &emitted, &roots) })
	if err != nil {
		return nil, 0, nil, err
	}
	for i, s := range sets {
		for j, v := range s {
			if int(v) >= numVerts || j > 0 && v <= s[j-1] {
				return nil, 0, nil, fmt.Errorf("QRS3 results: set %d is not strictly ascending below |V| = %d", i, numVerts)
			}
		}
	}
	for _, r := range roots {
		if int(r.Root) >= numVerts || r.SubSize > numVerts {
			return nil, 0, nil, fmt.Errorf("QRS3 results: root %d with a %d-vertex subgraph lies past |V| = %d", r.Root, r.SubSize, numVerts)
		}
	}
	return sets, emitted, roots, nil
}

// appFactory is every machine's application factory, in a worker
// process and in the coordinator's process alike: it decodes the job
// spec, validates it, and builds the job's app over g for the
// machine's workers.
func appFactory(g *graph.Graph) func(spec []byte, workers int) (gthinker.App, error) {
	return func(spec []byte, workers int) (gthinker.App, error) {
		cfg, err := DecodeJobSpec(spec)
		if err == nil {
			cfg, err = ValidateJob(cfg)
		}
		if err != nil {
			return nil, err
		}
		return newApp(g, cfg, workers), nil
	}
}

// HostWorker loads the graph file, validates it against the manifest,
// and starts the worker host serving machine machineID. It is the
// entire body of cmd/qcworker (and of the test harness's re-executed
// process): callers print the ready line, wait for the coordinator's
// exit op, and close. Everything else arrives from the coordinator —
// the engine shape, tracing and the fault plan in the join, the mining
// parameters in each job's spec; a fault-plan kill aimed at this
// machine (kill=M@N) exits the process hard with status 137,
// indistinguishable from an external SIGKILL.
func HostWorker(graphPath, manifestPath string, machineID int) (*gthinker.WorkerHost, func(), error) {
	man, err := store.ReadManifestFile(manifestPath)
	if err != nil {
		return nil, nil, err
	}
	if machineID < 0 || machineID >= len(man.Machines) {
		return nil, nil, fmt.Errorf("miner: machine %d not in manifest of %d machines", machineID, len(man.Machines))
	}
	mg, err := store.MapGraph(graphPath)
	if err != nil {
		return nil, nil, err
	}
	g := mg.Graph()
	if g.NumVertices() != man.NumVertices || uint64(g.NumEdges()) != man.NumEdges {
		mg.Close()
		return nil, nil, fmt.Errorf("miner: graph %s (|V|=%d |E|=%d) does not match manifest fingerprint (|V|=%d |E|=%d)",
			graphPath, g.NumVertices(), g.NumEdges(), man.NumVertices, man.NumEdges)
	}
	host, err := gthinker.StartWorkerHost(gthinker.WorkerHostConfig{
		Graph:     g,
		MachineID: machineID,
		Machines:  len(man.Machines),
		Addr:      man.Machines[machineID].Addr,
		Kill:      func() { os.Exit(137) },
		NewApp:    appFactory(g),
	})
	if err != nil {
		mg.Close()
		return nil, nil, err
	}
	cleanup := func() {
		host.Close()
		mg.Close()
	}
	return host, cleanup, nil
}

// ResolveQCWorker finds the qcworker binary for a coordinator CLI: an
// explicit path, the directory holding the calling binary, then
// $PATH. Shared by every coordinator CLI so their resolution rules
// cannot diverge.
func ResolveQCWorker(explicit string) (string, error) {
	if explicit != "" {
		if _, err := os.Stat(explicit); err != nil {
			return "", err
		}
		return explicit, nil
	}
	if self, err := os.Executable(); err == nil {
		cand := filepath.Join(filepath.Dir(self), "qcworker")
		if _, err := os.Stat(cand); err == nil {
			return cand, nil
		}
	}
	if path, err := exec.LookPath("qcworker"); err == nil {
		return path, nil
	}
	return "", fmt.Errorf("qcworker binary not found (build cmd/qcworker and pass -qcworker)")
}

// QCWorkerCommand returns the standard worker command factory for a
// ProcsConfig: run the qcworker binary at bin against graphPath and
// the generated manifest. Every coordinator CLI shares it so the
// invocation contract cannot diverge.
func QCWorkerCommand(bin, graphPath string) func(machine int, manifestPath string) *exec.Cmd {
	return func(machine int, manifestPath string) *exec.Cmd {
		return exec.Command(bin,
			"-graph", graphPath, "-manifest", manifestPath,
			"-machine", fmt.Sprint(machine))
	}
}

// ProcsConfig shapes a multi-process mining run. The pool writes one
// GQM3 manifest (machine count, graph fingerprint, one address per
// machine); every worker derives hash ownership from its machine
// count, exactly as an in-process cluster does.
type ProcsConfig struct {
	// GraphPath is the binary graph file (GQC2) every worker maps.
	GraphPath string
	// Command builds the worker process for one machine. It must run
	// qcworker (or an equivalent host) against manifestPath and print
	// the gthinker.WorkerReadyPrefix line on stdout.
	Command func(machineID int, manifestPath string) *exec.Cmd
	// ManifestDir receives the generated manifest file and keeps it
	// after the pool closes, for inspection. Empty writes it to
	// os.TempDir() and removes it on close.
	ManifestDir string
}

// MineProcs mines the graph at pcfg.GraphPath on a cluster of REAL
// worker OS processes, one per ecfg.Machines. It is a one-job session:
// start the pool, mine, close. Results are bit-identical to an
// in-process cluster on the same graph — the processes host the same
// MachineRuntime, driven through the same job lifecycle.
func MineProcs(ctx context.Context, cfg Config, ecfg gthinker.Config, pcfg ProcsConfig) (*Result, error) {
	pool, err := StartProcsPool(ecfg, pcfg)
	if err != nil {
		return nil, err
	}
	res, runErr := pool.Mine(ctx, cfg)
	cerr := pool.Close()
	if runErr != nil {
		return res, runErr
	}
	if cerr != nil {
		return nil, cerr
	}
	return res, nil
}
