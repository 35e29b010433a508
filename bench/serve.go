package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"sync/atomic"
	"time"

	"gthinkerqc/internal/graph"
	"gthinkerqc/internal/gthinker"
	"gthinkerqc/internal/miner"
	"gthinkerqc/internal/serve"
)

// Query classes of the served mix.
const (
	classBroad     = "broad"     // a planted-community query nobody asked before
	classSelective = "selective" // τsize above every community: an empty k-core
	classCached    = "cached"    // an exact repeat of a recent query
)

// cyclePattern is one cycle of the mix, 10 broad : 1 selective :
// 4 cached; the run seed shuffles its order. The broad jobs of a cycle
// ask each of the workload's ten queries once, so every cycle is the
// same work.
var cyclePattern = []string{
	classBroad, classBroad, classBroad, classBroad, classBroad,
	classBroad, classBroad, classBroad, classBroad, classBroad,
	classSelective,
	classCached, classCached, classCached, classCached,
}

// probePattern is the short mix that probes the serve layer on a
// workload that serves nothing itself.
var probePattern = []string{classBroad, classCached, classSelective, classCached, classBroad, classCached}

// pollInterval is the fixed wait between two status polls of a job.
const pollInterval = time.Millisecond

type backendKind int

const (
	poolBackend    backendKind = iota // 2 qcworker processes x 1 thread
	sessionBackend                    // in-process session, for the serve probe
)

// jobReq is one submission. TauSplit is above every task of these
// graphs, so it changes no result; it makes the request a new cache
// key.
type jobReq struct {
	class    string
	q        query
	tauSplit int
}

// jobObs is one served job seen from the client.
type jobObs struct {
	class      string
	total      time.Duration // POST sent → last byte of the results read
	submit     time.Duration // POST round trip
	statusRTT  time.Duration // summed over polls
	polls      int
	resultTime time.Duration
	resultSize int
	cached     bool
}

// serveStack is serve.Server on a loopback net/http listener over one
// backend, with the single client connection that drives it.
type serveStack struct {
	s         *state
	workers   []*exec.Cmd // qcworker processes; empty for a session backend
	poolStart time.Duration
	server    *serve.Server
	httpSrv   *http.Server
	served    chan error
	client    *http.Client
	base      string

	r       rng
	pattern []string
	broad   int // broad jobs drawn so far
	nextTau int
	recent  []jobReq
	jobSpan atomic.Int64 // harness span of the job in flight
	jobs    []jobObs     // kept while state.trace is set
}

// spanBackend records each call serve makes into the miner layer.
type spanBackend struct {
	serve.Backend
	st *serveStack
}

func (b spanBackend) Mine(ctx context.Context, cfg miner.Config) (*miner.Result, error) {
	_, end := b.st.s.env.spans.begin(int(b.st.jobSpan.Load()), "miner", "Backend.Mine")
	defer end()
	return b.Backend.Mine(ctx, cfg)
}

func startServe(s *state, kind backendKind) (*serveStack, error) {
	st := &serveStack{s: s, r: rng{s: s.env.Seed ^ 0x5e7fe}, nextTau: 1 << 20}
	st.pattern = append(st.pattern, cyclePattern...)
	for i := len(st.pattern) - 1; i > 0; i-- {
		j := st.r.intn(i + 1)
		st.pattern[i], st.pattern[j] = st.pattern[j], st.pattern[i]
	}

	var backend serve.Backend
	switch kind {
	case poolBackend:
		command := miner.QCWorkerCommand(s.env.QCWorker, s.graphPath)
		t0 := time.Now()
		pool, err := miner.StartProcsPool(
			gthinker.Config{Machines: 2, WorkersPerMachine: 1},
			miner.ProcsConfig{
				GraphPath:   s.graphPath,
				ManifestDir: s.env.WorkDir,
				Command: func(machine int, manifest string) *exec.Cmd {
					cmd := command(machine, manifest)
					st.workers = append(st.workers, cmd)
					return cmd
				},
			})
		if err != nil {
			return nil, err
		}
		st.poolStart = time.Since(t0)
		backend = serve.PoolBackend(pool)
	default:
		backend = serve.SessionBackend(miner.NewSession(s.g, oneMachine(s.env.W)))
	}

	st.server = serve.NewServer(serve.Config{
		Backend:     spanBackend{backend, st},
		Fingerprint: fmt.Sprintf("%s:%d:%d", s.graphPath, s.g.NumVertices(), s.g.NumEdges()),
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.server.Close()
		return nil, err
	}
	st.base = "http://" + ln.Addr().String()
	st.httpSrv = &http.Server{Handler: st.server.Handler()}
	st.served = make(chan error, 1)
	go func() { st.served <- st.httpSrv.Serve(ln) }()
	// One client, one connection: a job's requests reuse it in turn.
	st.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	return st, nil
}

// close stops the HTTP server and the backend, and returns once the
// serving goroutine and every worker process have ended.
func (st *serveStack) close() {
	st.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	st.httpSrv.Shutdown(ctx)
	<-st.served
	st.server.Close()
}

// workerCPU sums the CPU time of the live worker processes; a workload
// that serves nothing has none.
func (st *serveStack) workerCPU() time.Duration {
	var d time.Duration
	if st == nil {
		return 0
	}
	for _, cmd := range st.workers {
		d += procCPU(cmd.Process.Pid)
	}
	return d
}

func (st *serveStack) workerPeakRSS() float64 {
	mb := 0.0
	if st == nil {
		return 0
	}
	for _, cmd := range st.workers {
		mb += procPeakRSS(cmd.Process.Pid)
	}
	return mb
}

// next draws the following job of class from the seeded sequence.
func (st *serveStack) next(class string) jobReq {
	if class == classCached && len(st.recent) > 0 {
		j := st.recent[st.r.intn(len(st.recent))]
		j.class = classCached
		return j
	}
	j := jobReq{class: classBroad, tauSplit: st.nextTau}
	st.nextTau++
	if class == classSelective {
		j.class, j.q = classSelective, st.s.wl.selective()
	} else {
		j.q = st.s.wl.Queries[st.broad%len(st.s.wl.Queries)]
		st.broad++
	}
	if st.recent = append(st.recent, j); len(st.recent) > 8 {
		st.recent = st.recent[1:]
	}
	return j
}

// cycle runs one cycle of the mix, each job sent when the previous
// one's results have been read.
func (st *serveStack) cycle() []sample {
	out := make([]sample, 0, len(st.pattern))
	for _, class := range st.pattern {
		j := st.next(class)
		obs, err := st.run(j)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
		}
		if st.s.trace {
			st.jobs = append(st.jobs, obs)
		}
		out = append(out, sample{j.class, obs.total, err == nil})
	}
	return out
}

type jobStatus struct {
	ID     string `json:"id"`
	State  string `json:"state"`
	Cached bool   `json:"cached"`
	Error  string `json:"error"`
}

// do sends one request and reads its whole body, so that the
// connection is free for the next.
func (st *serveStack) do(parent int, name, method, url string, body []byte) ([]byte, int, error) {
	_, end := st.s.env.spans.begin(parent, "serve", name)
	defer end()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	resp, err := st.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return data, resp.StatusCode, err
}

// run submits j, polls its status every pollInterval until it is done,
// reads its results, and checks them against the serial reference.
func (st *serveStack) run(j jobReq) (jobObs, error) {
	obs := jobObs{class: j.class}
	span, end := st.s.env.spans.begin(0, "bench", "job."+j.class)
	st.jobSpan.Store(int64(span))
	defer end()
	body, _ := json.Marshal(serve.JobRequest{Gamma: j.q.Gamma, MinSize: j.q.MinSize, TauSplit: j.tauSplit, TauTimeMS: 1})

	t0 := time.Now()
	data, code, err := st.do(span, "POST /v1/jobs", http.MethodPost, st.base+"/v1/jobs", body)
	obs.submit = time.Since(t0)
	if err != nil {
		return obs, err
	}
	if code != http.StatusAccepted && code != http.StatusOK {
		return obs, fmt.Errorf("submit answered %d: %s", code, data)
	}
	var status jobStatus
	if err := json.Unmarshal(data, &status); err != nil {
		return obs, err
	}
	obs.cached = status.Cached
	for status.State != string(serve.StateDone) {
		if status.State != string(serve.StateQueued) && status.State != string(serve.StateRunning) {
			return obs, fmt.Errorf("job %s ended %s: %s", status.ID, status.State, status.Error)
		}
		time.Sleep(pollInterval)
		tp := time.Now()
		data, _, err = st.do(span, "GET status", http.MethodGet, st.base+"/v1/jobs/"+status.ID, nil)
		obs.statusRTT += time.Since(tp)
		obs.polls++
		if err != nil {
			return obs, err
		}
		if err := json.Unmarshal(data, &status); err != nil {
			return obs, err
		}
	}
	tr := time.Now()
	data, code, err = st.do(span, "GET results", http.MethodGet, st.base+"/v1/jobs/"+status.ID+"/results", nil)
	obs.total = time.Since(t0)
	obs.resultTime = time.Since(tr)
	obs.resultSize = len(data)
	if err != nil {
		return obs, err
	}
	if code != http.StatusOK {
		return obs, fmt.Errorf("results answered %d: %s", code, data)
	}

	if obs.cached != (j.class == classCached) {
		return obs, fmt.Errorf("%s job %s: cached=%v", j.class, status.ID, obs.cached)
	}
	var sets [][]graph.V
	dec := json.NewDecoder(bytes.NewReader(data))
	for dec.More() {
		var set []graph.V
		if err := dec.Decode(&set); err != nil {
			return obs, err
		}
		sets = append(sets, set)
	}
	if hashSets(sets) != st.s.refs[j.q].hash {
		return obs, fmt.Errorf("job %s (γ=%v τsize=%d): %d sets differ from the serial reference", status.ID, j.q.Gamma, j.q.MinSize, len(sets))
	}
	return obs, nil
}

// servedJobs returns the jobs the traced operations served, or, for a
// workload that serves none, those of a short mix served from an
// in-process session over the workload's graph.
func (s *state) servedJobs() ([]jobObs, error) {
	if s.serve != nil {
		return s.serve.jobs, nil
	}
	st, err := startServe(s, sessionBackend)
	if err != nil {
		return nil, err
	}
	defer st.close()
	st.pattern = probePattern
	if _, err := st.run(st.next(classSelective)); err != nil { // warm-up
		return nil, err
	}
	for _, sm := range st.cycle() {
		if !sm.ok {
			return nil, fmt.Errorf("serve probe: a %s job failed", sm.class)
		}
	}
	return st.jobs, nil
}
