package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"path/filepath"
	"time"

	"gthinkerqc"
	"gthinkerqc/internal/graph"
	"gthinkerqc/internal/gthinker"
	"gthinkerqc/internal/miner"
	"gthinkerqc/internal/quasiclique"
	"gthinkerqc/internal/store"
)

// query is the γ and τsize of one mining request; results depend on
// nothing else, so it keys the serial references.
type query struct {
	Gamma   float64
	MinSize int
}

func (q query) params() quasiclique.Params {
	return quasiclique.Params{Gamma: q.Gamma, MinSize: q.MinSize}
}

// workload is one set of inputs and the call path they are run through.
type workload struct {
	Name string
	Why  string
	// Spec is the measured graph; Smoke a sub-second one for tests.
	Spec, Smoke graphSpec
	// Queries are mined serially in set-up as references. The first is
	// the workload's own query (for serve-shortjobs, one broad query).
	Queries []query
	// Miner and Engine shape a miner.Mine call. Engine is nil where the
	// workload does not go through the engine itself; the layer probes
	// of a traced run then use ProbeEngine.
	Miner  miner.Config
	Engine func(w int) gthinker.Config
	// Serve marks the HTTP workload.
	Serve bool
}

// hardcore is the graph of the first three workloads: one planted core
// that is dense but not itself a result, so the search inside it is
// the exponential case, plus ten communities that are.
var hardcore = graphSpec{N: 45000, BgEdges: 90000, Blocks: []blockSpec{{1, 32, 0.87}, {10, 19, 0.95}}}
var hardcoreSmoke = graphSpec{N: 3000, BgEdges: 6000, Blocks: []blockSpec{{1, 24, 0.87}, {4, 19, 0.95}}}
var hardcoreQuery = query{0.9, 16}

// hardcoreMiner makes the core's root tasks big (τsplit below the
// core's size) and decomposes after 1 ms of backtracking.
var hardcoreMiner = miner.Config{TauSplit: 20, TauTime: time.Millisecond}

func oneMachine(w int) gthinker.Config {
	return gthinker.Config{Machines: 1, WorkersPerMachine: w}
}

var workloads = []workload{
	{
		Name:    "serial-hardcore",
		Why:     "MineSerial on one dense planted core: only bitset and quasiclique run, so an engine change must not move it",
		Spec:    hardcore,
		Smoke:   hardcoreSmoke,
		Queries: []query{hardcoreQuery},
	},
	{
		Name:    "engine-hardcore",
		Why:     "same graph through miner.Mine on 1 machine x W workers: time-delayed decomposition and the big-task queue, the straggler case",
		Spec:    hardcore,
		Smoke:   hardcoreSmoke,
		Queries: []query{hardcoreQuery},
		Miner:   hardcoreMiner,
		Engine:  oneMachine,
	},
	{
		Name:    "engine-spill",
		Why:     "same graph, size-threshold split with 512-task queues: 24k subtasks and 43 MB through GQS1 spill and refill",
		Spec:    hardcore,
		Smoke:   hardcoreSmoke,
		Queries: []query{hardcoreQuery},
		Miner:   miner.Config{Strategy: miner.SizeThreshold, TauSplit: 14},
		Engine: func(w int) gthinker.Config {
			return gthinker.Config{Machines: 1, WorkersPerMachine: w, QueueCap: 512, BatchSize: 256}
		},
	},
	{
		Name:    "cluster-manyroots",
		Why:     "19k trivial root tasks on 2 machines over loopback TCP: resolve, vertex cache, data plane and coordinator polling, little mining",
		Spec:    graphSpec{N: 36000, BgEdges: 162000, Blocks: []blockSpec{{270, 16, 0.95}, {270, 14, 0.95}}},
		Smoke:   graphSpec{N: 4000, BgEdges: 18000, Blocks: []blockSpec{{30, 16, 0.95}, {30, 14, 0.95}}},
		Queries: []query{{0.9, 12}},
		Miner:   miner.Config{TauSplit: 100, TauTime: time.Millisecond},
		Engine: func(int) gthinker.Config {
			return gthinker.Config{Machines: 2, WorkersPerMachine: 1, InProcessTCP: true}
		},
	},
	{
		Name:  "serve-shortjobs",
		Why:   "closed loop of short HTTP jobs on 2 qcworker processes: per-job fixed cost, result cache and the ProcsPool composition",
		Spec:  graphSpec{N: 60000, BgEdges: 120000, Blocks: []blockSpec{{8, 18, 0.92}, {8, 19, 0.92}, {8, 20, 0.92}, {8, 21, 0.92}, {8, 22, 0.92}}},
		Smoke: graphSpec{N: 3000, BgEdges: 6000, Blocks: []blockSpec{{2, 18, 0.92}, {2, 20, 0.92}, {2, 22, 0.92}}},
		Queries: []query{
			{0.85, 14}, {0.85, 16}, {0.85, 18},
			{0.9, 14}, {0.9, 15}, {0.9, 16}, {0.9, 18},
			{0.95, 14}, {0.95, 16}, {0.95, 18},
		},
		Serve: true,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

func (wl *workload) spec(smoke bool) graphSpec {
	if smoke {
		return wl.Smoke
	}
	return wl.Spec
}

// selective is a query whose τsize no planted block reaches, so the
// k-core is empty and a job costs only what every job costs.
func (wl *workload) selective() query {
	largest := 0
	for _, b := range wl.Spec.Blocks {
		largest = max(largest, b.Size)
	}
	return query{0.9, 2 * largest}
}

// probeEngine is the engine shape and miner config the engine layers
// are observed on: the workload's own, or, where the workload does not
// call miner.Mine itself, the one the engine would be given for this
// graph.
func (wl *workload) probeEngine(w int) (miner.Config, gthinker.Config) {
	cfg := wl.Miner
	ecfg := oneMachine(w)
	switch {
	case wl.Engine != nil:
		ecfg = wl.Engine(w)
	case wl.Serve:
		ecfg = gthinker.Config{Machines: 2, WorkersPerMachine: 1, InProcessTCP: true}
	default:
		cfg = hardcoreMiner
	}
	cfg.Params = wl.Queries[0].params()
	return cfg, ecfg
}

// env is what one benchmark process runs with.
type env struct {
	Seed     uint64
	Smoke    bool
	W        int    // mining threads: min(nproc, 4)
	WorkDir  string // scratch inside the checkout, removed at exit
	OutDir   string // where a traced run writes <workload>.trace.json
	QCWorker string // qcworker binary for serve-shortjobs
	spans    *spanLog
}

// reference is the serial answer to one query.
type reference struct {
	hash       [32]byte
	results    int
	nodes      int64
	candidates int64
	mine       time.Duration // search, candidates unfiltered
	filter     time.Duration // FilterMaximal over the candidates
}

// state is a set-up workload, ready for timed operations.
type state struct {
	wl        *workload
	env       *env
	graphPath string
	mapped    *store.MappedGraph
	g         *graph.Graph
	edges     int
	refs      map[query]reference
	// layer times measured while setting up
	buildCSR, writeGQC2, mapGraph time.Duration
	serve                         *serveStack // serve-shortjobs only
	// trace turns the engine's tracer on and keeps what the operations
	// show of the engine and serve layers.
	trace  bool
	engine []engineObs
}

// hashSets is the SHA-256 of a result set in the order given: the
// miners return canonical order, so equal hashes mean bit-identical
// results.
func hashSets(sets [][]graph.V) [32]byte {
	h := sha256.New()
	var buf [4]byte
	for _, s := range sets {
		binary.LittleEndian.PutUint32(buf[:], uint32(len(s)))
		h.Write(buf[:])
		for _, v := range s {
			binary.LittleEndian.PutUint32(buf[:], v)
			h.Write(buf[:])
		}
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// setUp does everything that precedes the timed section: generate the
// graph, build its CSR, write it as GQC2, map the file, mine every
// reference serially, and for serve-shortjobs start the worker pool
// and the HTTP server. Building the binaries is not part of it; the
// wrapper script does that once per checkout.
func setUp(wl *workload, e *env) (*state, error) {
	s := &state{wl: wl, env: e, refs: map[query]reference{}}
	root, end := e.spans.begin(0, "bench", "setup")
	defer end()

	b := plant(wl.spec(e.Smoke), e.Seed)
	s.edges = b.NumEntries() / 2
	var built *graph.Graph
	var err error
	t0 := time.Now()
	e.spans.call(root, "graph", "Builder.Build", func() { built, err = b.Build() })
	s.buildCSR = time.Since(t0)
	if err != nil {
		return nil, err
	}

	s.graphPath = filepath.Join(e.WorkDir, wl.Name+".gqc")
	t0 = time.Now()
	e.spans.call(root, "graph", "WriteBinaryFile", func() { err = graph.WriteBinaryFile(s.graphPath, built) })
	s.writeGQC2 = time.Since(t0)
	if err != nil {
		return nil, err
	}
	t0 = time.Now()
	e.spans.call(root, "store", "MapGraph", func() { s.mapped, err = store.MapGraph(s.graphPath) })
	s.mapGraph = time.Since(t0)
	if err != nil {
		return nil, err
	}
	s.g = s.mapped.Graph()

	for _, q := range wl.Queries {
		ref, err := mineReference(s.g, q, e.spans, root)
		if err != nil {
			s.close()
			return nil, err
		}
		s.refs[q] = ref
	}
	s.refs[wl.selective()] = reference{hash: hashSets(nil)}

	if wl.Serve {
		e.spans.call(root, "serve", "start", func() { s.serve, err = startServe(s, poolBackend) })
		if err != nil {
			s.close()
			return nil, err
		}
	}
	return s, nil
}

// mineReference mines q serially, search and maximality filter timed
// apart, and checks every returned set against the definition.
func mineReference(g *graph.Graph, q query, sp *spanLog, parent int) (reference, error) {
	var ref reference
	var cands [][]graph.V
	var stats quasiclique.MineStats
	var err error
	t0 := time.Now()
	sp.call(parent, "quasiclique", "MineGraph", func() {
		cands, stats, err = quasiclique.MineGraph(g, q.params(), quasiclique.Options{SkipMaximalityFilter: true})
	})
	ref.mine = time.Since(t0)
	if err != nil {
		return ref, err
	}
	var sets [][]graph.V
	t0 = time.Now()
	sp.call(parent, "quasiclique", "FilterMaximal", func() { sets = quasiclique.FilterMaximal(cands) })
	ref.filter = time.Since(t0)
	for _, set := range sets {
		if len(set) < q.MinSize || !quasiclique.IsQuasiClique(g, set, q.Gamma) {
			return ref, fmt.Errorf("reference for γ=%v τsize=%d holds %v, which is not a quasi-clique of that size", q.Gamma, q.MinSize, set)
		}
	}
	ref.hash = hashSets(sets)
	ref.results = len(sets)
	ref.nodes = stats.Nodes
	ref.candidates = stats.Candidates
	return ref, nil
}

func (s *state) close() {
	if s.serve != nil {
		s.serve.close()
		s.serve = nil
	}
	if s.mapped != nil {
		s.mapped.Close()
		s.mapped = nil
	}
}

// sample is one timed operation: a mine call or a served job.
type sample struct {
	class string
	dur   time.Duration
	ok    bool
}

// primaryClass names the samples behind op_wall_ms.
func (wl *workload) primaryClass() string {
	if wl.Serve {
		return classBroad
	}
	return classMine
}

const classMine = "mine"

// step runs the workload's next unit of work: one full mine call, or
// one cycle of served jobs.
func (s *state) step() []sample {
	switch {
	case s.wl.Serve:
		return s.serve.cycle()
	case s.wl.Engine != nil:
		cfg, ecfg := s.wl.probeEngine(s.env.W)
		return []sample{s.mineEngine(cfg, ecfg)}
	default:
		return []sample{s.mineSerial()}
	}
}

func (s *state) mineSerial() sample {
	q := s.wl.Queries[0]
	_, end := s.env.spans.begin(0, "quasiclique", "MineSerial")
	t0 := time.Now()
	res, err := gthinkerqc.MineSerial(s.g, gthinkerqc.Config{Gamma: q.Gamma, MinSize: q.MinSize})
	d := time.Since(t0)
	end()
	return sample{classMine, d, err == nil && hashSets(res.Cliques) == s.refs[q].hash}
}

// engineObs is one miner.Mine call seen from outside.
type engineObs struct {
	res        *miner.Result
	start, end time.Time
	workers    int
}

// mineEngine times one miner.Mine call: session open, mining,
// collector merge, maximality filter and session close.
func (s *state) mineEngine(cfg miner.Config, ecfg gthinker.Config) sample {
	ecfg.Trace = s.trace
	_, end := s.env.spans.begin(0, "miner", "Mine")
	t0 := time.Now()
	res, err := miner.Mine(s.g, cfg, ecfg)
	t1 := time.Now()
	end()
	if err != nil {
		return sample{classMine, t1.Sub(t0), false}
	}
	if s.trace {
		s.engine = append(s.engine, engineObs{res, t0, t1, ecfg.TotalWorkers()})
	}
	q := query{cfg.Params.Gamma, cfg.Params.MinSize}
	return sample{classMine, t1.Sub(t0), hashSets(res.Cliques) == s.refs[q].hash}
}
