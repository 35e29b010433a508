// Multi-process deployment glue: the app-level halves of the cluster
// protocol. The gthinker control plane ships two opaque byte blobs —
// the job spec a coordinator hands every worker at join and with each
// run, and the result set a worker hands back after shutdown — and
// this file owns both encodings for the quasi-clique miner, plus the
// worker-process entry point (cmd/qcworker) and the one-shot MineProcs.
package miner

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	"gthinkerqc/internal/graph"
	"gthinkerqc/internal/gthinker"
	"gthinkerqc/internal/quasiclique"
	"gthinkerqc/internal/store"
)

// jobSpecMagic versions the miner job spec carried inside opJoin and
// opRun. QJS2 dropped QJS1's spill-format byte; QJS3 dropped the two
// kernel flags and the two dense-kernel scalars. A worker built for
// another layout is refused at join instead of mis-parsing every field
// after it.
var jobSpecMagic = [4]byte{'Q', 'J', 'S', '3'}

// specWalker visits the job spec's fields in wire order: encoding
// (cur nil) appends each to buf, decoding reads each from cur. Both
// directions walk jobSpecFields, so a field is spelled once.
type specWalker struct {
	buf []byte
	cur *store.Cursor
}

// num carries v as width little-endian bytes.
func (w *specWalker) num(width int, v uint64) uint64 {
	var b [8]byte
	if w.cur == nil {
		binary.LittleEndian.PutUint64(b[:], v)
		w.buf = append(w.buf, b[:width]...)
		return v
	}
	copy(b[:], w.cur.Bytes(width))
	return binary.LittleEndian.Uint64(b[:])
}

func (w *specWalker) float(p *float64)     { *p = math.Float64frombits(w.num(8, math.Float64bits(*p))) }
func (w *specWalker) dur(p *time.Duration) { *p = time.Duration(w.num(8, uint64(*p))) }
func (w *specWalker) narrow(p *int)        { *p = int(w.num(4, uint64(uint32(*p)))) }

// wide carries an int whose negative values mean something ("off").
func (w *specWalker) wide(p *int) { *p = int(int64(w.num(8, uint64(int64(*p))))) }

// flags carries booleans as one u32 bitmask, bit i for bits[i].
func (w *specWalker) flags(bits ...*bool) {
	var mask uint64
	for i, b := range bits {
		if *b {
			mask |= 1 << i
		}
	}
	mask = w.num(4, mask)
	for i, b := range bits {
		*b = mask&(1<<i) != 0
	}
}

// str carries a u32 length and that many bytes; a decoded length is
// checked against the bytes present before anything is copied.
func (w *specWalker) str(p *string) {
	if w.cur == nil {
		w.buf = store.AppendString(w.buf, *p)
	} else {
		*p = w.cur.String(w.cur.Remaining())
	}
}

// jobSpecFields is the QJS3 layout after the magic: every field of the
// miner and engine configs that crosses the wire, in order. The engine
// config travels without a SpillDir (each worker process spills into
// its own temporary directory) and without transport fields (the
// handshake wires those).
func jobSpecFields(w *specWalker, cfg *Config, ecfg *gthinker.Config) {
	o := &cfg.Options
	w.float(&cfg.Params.Gamma)
	w.narrow(&cfg.Params.MinSize)
	w.narrow(&cfg.TauSplit)
	w.dur(&cfg.TauTime)
	cfg.Strategy = Strategy(w.num(1, uint64(cfg.Strategy)))
	w.flags(&o.DisableKCore, &o.DisableLookahead, &o.DisableCoverVertex,
		&o.DisableCriticalVertex, &o.DisableUpperBound, &o.DisableLowerBound,
		&o.DisableDegreePruning, &o.QuickCompat, &o.SkipMaximalityFilter)
	w.dur(&cfg.TimeBudget)

	w.narrow(&ecfg.Machines)
	w.narrow(&ecfg.WorkersPerMachine)
	w.narrow(&ecfg.QueueCap)
	w.narrow(&ecfg.BatchSize)
	w.narrow(&ecfg.CacheCap)
	w.dur(&ecfg.StealInterval)
	w.dur(&ecfg.StatusInterval)
	w.wide(&ecfg.StealIdlePolls)
	w.flags(&ecfg.DisableStealing, &ecfg.DisableGlobalQueue, &ecfg.DisableRecovery, &ecfg.Trace)
	w.dur(&ecfg.FrameTimeout)
	w.dur(&ecfg.DialTimeout)
	w.wide(&ecfg.DeadAfterPolls)
	w.str(&ecfg.FaultSpec)
}

// AppendJobSpec encodes the mining job (miner config + engine shape)
// for the join handshake, so every worker process mines with exactly
// the coordinator's parameters — there is one source of truth and it
// is not N command lines.
func AppendJobSpec(dst []byte, cfg Config, ecfg gthinker.Config) []byte {
	cfg = cfg.withDefaults()
	w := specWalker{buf: append(dst, jobSpecMagic[:]...)}
	jobSpecFields(&w, &cfg, &ecfg)
	return w.buf
}

// DecodeJobSpec reverses AppendJobSpec.
func DecodeJobSpec(data []byte) (Config, gthinker.Config, error) {
	var cfg Config
	var ecfg gthinker.Config
	if len(data) < 4 || string(data[:3]) != string(jobSpecMagic[:3]) {
		return cfg, ecfg, fmt.Errorf("miner: bad job spec magic")
	}
	if data[3] != jobSpecMagic[3] {
		return cfg, ecfg, fmt.Errorf("miner: unsupported job spec version %q (this build speaks %q); coordinator and qcworker must come from the same build",
			data[:4], jobSpecMagic[:])
	}
	w := specWalker{cur: store.NewCursor(data[4:])}
	jobSpecFields(&w, &cfg, &ecfg)
	if err := w.cur.Err(); err != nil {
		return cfg, ecfg, fmt.Errorf("miner: malformed job spec: %w", err)
	}
	if w.cur.Remaining() != 0 {
		return cfg, ecfg, fmt.Errorf("miner: %d trailing bytes in job spec", w.cur.Remaining())
	}
	return cfg, ecfg, nil
}

// resultsMagic versions the worker→coordinator result flush.
var resultsMagic = [4]byte{'Q', 'R', 'S', '2'}

// AppendResults encodes one machine's opResults flush: the sets it
// ships and, next to them, how many candidates its workers emitted —
// the shipped sets are survivors of the machine's own filter, so the
// count cannot be recovered from them.
func AppendResults(dst []byte, sets [][]graph.V, emitted int64) []byte {
	dst = append(dst, resultsMagic[:]...)
	dst = store.AppendU64(dst, uint64(emitted))
	dst = store.AppendU32(dst, uint32(len(sets)))
	for _, s := range sets {
		dst = store.AppendU32(dst, uint32(len(s)))
		dst = store.AppendU32s(dst, s)
	}
	return dst
}

// DecodeResults reverses AppendResults, bounds-checking every count
// against the bytes present before allocating.
func DecodeResults(data []byte) (sets [][]graph.V, emitted int64, err error) {
	if len(data) < 4 || string(data[:4]) != string(resultsMagic[:]) {
		return nil, 0, fmt.Errorf("miner: bad results magic")
	}
	c := store.NewCursor(data[4:])
	emitted = int64(c.U64())
	n := int(c.U32())
	if err := c.Err(); err != nil {
		return nil, 0, fmt.Errorf("miner: malformed results: %w", err)
	}
	if n > c.Remaining()/4 {
		return nil, 0, fmt.Errorf("miner: results claim %d sets in %d bytes", n, c.Remaining())
	}
	sets = make([][]graph.V, n)
	for i := range sets {
		sets[i] = c.U32s(int(c.U32()))
	}
	if err := c.Err(); err != nil {
		return nil, 0, fmt.Errorf("miner: malformed results: %w", err)
	}
	if c.Remaining() != 0 {
		return nil, 0, fmt.Errorf("miner: %d trailing bytes in results", c.Remaining())
	}
	return sets, emitted, nil
}

// workerResults finalizes one worker process's collectors — so unless
// the job skips the filter, only the sets that are maximal on this
// machine travel; the coordinator filters the union — and encodes them
// with the machine's emission count.
func workerResults(a gthinker.App) ([]byte, error) {
	ma, ok := a.(*app)
	if !ok {
		return nil, fmt.Errorf("miner: results requested from %T", a)
	}
	parts, emitted := ma.collected()
	return AppendResults(nil, quasiclique.Finalize(parts, ma.cfg.Options.SkipMaximalityFilter), emitted), nil
}

// HostWorker loads the graph file, validates it against the manifest,
// and starts the worker host serving machine machineID. It is the
// entire body of cmd/qcworker (and of the test harness's re-executed
// process): callers print the ready line, wait for the coordinator's
// exit op, and close. faultSpec, when non-empty, overrides the job
// spec's fault plan for this process (chaos tests inject faults into
// one machine of a cluster); a fault-plan kill exits the process hard
// with status 137, indistinguishable from an external SIGKILL. trace
// forces span tracing on for this process even when the job spec does
// not request it (cmd/qcworker threads -trace through it).
func HostWorker(graphPath, manifestPath string, machineID int, faultSpec string, trace bool) (*gthinker.WorkerHost, func(), error) {
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
	if man.Scheme == store.OwnerSchemeRange {
		// Warm this worker's owned byte span of the mapped graph while
		// the rest stays cold under MADV_RANDOM. Advisory: a heap-backed
		// graph (or a platform without madvise) skips it.
		_ = mg.AdviseWillNeed(man.Bounds[machineID], man.Bounds[machineID+1])
	}
	spec := man.Machines[machineID]
	host, err := gthinker.StartWorkerHost(gthinker.WorkerHostConfig{
		Graph:       g,
		MachineID:   machineID,
		Machines:    len(man.Machines),
		ControlAddr: spec.Control,
		VertexAddr:  spec.Vertex,
		TaskAddr:    spec.Task,
		FaultSpec:   faultSpec,
		Trace:       trace,
		Kill:        func() { os.Exit(137) },
		NewApp: func(specBytes []byte, machines int) (gthinker.App, gthinker.Config, error) {
			cfg, ecfg, err := DecodeJobSpec(specBytes)
			if err != nil {
				return nil, gthinker.Config{}, err
			}
			if err := cfg.Params.Validate(); err != nil {
				return nil, gthinker.Config{}, err
			}
			if ecfg.Machines != machines {
				return nil, gthinker.Config{}, fmt.Errorf("miner: job spec names %d machines, join %d", ecfg.Machines, machines)
			}
			// Ownership comes from the manifest, not the job spec:
			// every process of the deployment read the same bounds next
			// to the same graph fingerprint.
			if man.Scheme == store.OwnerSchemeRange {
				ecfg.PartitionBounds = man.Bounds
			}
			cfg = cfg.withDefaults()
			return newApp(g, cfg, ecfg.TotalWorkers()), ecfg, nil
		},
		Results: workerResults,
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

// ProcsConfig shapes a multi-process mining run.
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
	// RangePartition switches the deployment from splitmix hash
	// ownership to contiguous vertex ranges (store.OwnerSchemeRange):
	// the pool derives equal-entry bounds from the graph
	// (graph.RangeBounds) unless ecfg.PartitionBounds is already set,
	// and ships them in the manifest so each worker keeps only its own
	// ~1/N byte span of the mapped graph warm (MappedGraph.
	// AdviseWillNeed). Results are identical either way.
	RangePartition bool
	// ReadyTimeout bounds worker startup; ExitTimeout bounds teardown.
	// Both default to 30 s.
	ReadyTimeout time.Duration
	ExitTimeout  time.Duration
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
