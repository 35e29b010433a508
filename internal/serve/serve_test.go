package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"gthinkerqc/internal/datagen"
	"gthinkerqc/internal/graph"
	"gthinkerqc/internal/gthinker"
	"gthinkerqc/internal/miner"
	"gthinkerqc/internal/quasiclique"
)

func serveTestGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, _, err := datagen.Planted(datagen.PlantedConfig{
		N:          400,
		Background: 0.01,
		Communities: []datagen.Community{
			{Size: 12, Density: 0.95, Count: 3},
			{Size: 9, Density: 1.0, Count: 2},
		},
		Seed: 99,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func serialSets(t *testing.T, g *graph.Graph, par quasiclique.Params) [][]graph.V {
	t.Helper()
	sets, _, err := quasiclique.MineGraph(g, par, quasiclique.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sets) == 0 {
		t.Fatalf("no serial results for γ=%v τ=%d", par.Gamma, par.MinSize)
	}
	return sets
}

// sessionServer builds a ready-to-serve test server over an
// in-process session on the planted graph.
func sessionServer(t *testing.T, quota int) (*Server, *httptest.Server) {
	t.Helper()
	g := serveTestGraph(t)
	s := miner.NewSession(g, gthinker.Config{
		Machines: 2, WorkersPerMachine: 2,
		StealInterval: time.Millisecond,
		SpillDir:      t.TempDir(),
	})
	srv := NewServer(Config{
		Backend:     SessionBackend(s),
		Fingerprint: fmt.Sprintf("test:%d:%d", g.NumVertices(), g.NumEdges()),
		Quota:       quota,
	})
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		srv.Close()
	})
	return srv, hs
}

func postJob(t *testing.T, base string, req JobRequest) (jobStatus, int) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st jobStatus
	if resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return st, resp.StatusCode
}

func waitDone(t *testing.T, base, id string) jobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st jobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		switch JobState(st.State) {
		case StateDone, StateFailed, StateCanceled:
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish in time", id)
	return jobStatus{}
}

func fetchResults(t *testing.T, base, id string) [][]graph.V {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/results")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("results for %s: HTTP %d", id, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("results Content-Type = %q", ct)
	}
	var sets [][]graph.V
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for sc.Scan() {
		var qc []graph.V
		if err := json.Unmarshal(sc.Bytes(), &qc); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		sets = append(sets, qc)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return sets
}

func metricValue(t *testing.T, base, name string) int {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var v int
		if _, err := fmt.Sscanf(sc.Text(), name+" %d", &v); err == nil &&
			strings.HasPrefix(sc.Text(), name+" ") {
			return v
		}
	}
	t.Fatalf("metric %s not found", name)
	return 0
}

// TestServeOverlappingJobsBitIdentical is the service-level
// correctness gate: three jobs with different parameters are all
// admitted before any finishes (they overlap in the queue while the
// cluster mines one at a time), and each job's streamed NDJSON
// results must be bit-identical to a fresh serial mine with that
// job's parameters. A fourth, repeated submission must be a cache hit
// answered with the identical result set.
func TestServeOverlappingJobsBitIdentical(t *testing.T) {
	g := serveTestGraph(t)
	_, hs := sessionServer(t, 16)
	base := hs.URL

	params := []quasiclique.Params{
		{Gamma: 0.8, MinSize: 7},
		{Gamma: 0.9, MinSize: 5},
		{Gamma: 0.8, MinSize: 8},
	}
	ids := make([]string, len(params))
	for i, par := range params {
		st, code := postJob(t, base, JobRequest{Gamma: par.Gamma, MinSize: par.MinSize, TauSplit: 4, TauTimeMS: 1})
		if code != http.StatusAccepted {
			t.Fatalf("job %d: HTTP %d, want 202", i, code)
		}
		if st.Cached {
			t.Fatalf("job %d claims cached on first submission", i)
		}
		ids[i] = st.ID
	}
	for i, par := range params {
		st := waitDone(t, base, ids[i])
		if st.State != string(StateDone) {
			t.Fatalf("job %s: state %s (err %q), want done", ids[i], st.State, st.Error)
		}
		got := fetchResults(t, base, ids[i])
		want := serialSets(t, g, par)
		if !quasiclique.SetsEqual(got, want) {
			t.Fatalf("job %s (γ=%v τ=%d) diverges from serial: %d vs %d cliques",
				ids[i], par.Gamma, par.MinSize, len(got), len(want))
		}
	}

	// Same query, sparser spelling (defaults left implicit): the
	// canonical spec must collide and the answer must come from cache.
	st, code := postJob(t, base, JobRequest{Gamma: params[0].Gamma, MinSize: params[0].MinSize, TauSplit: 4, TauTimeMS: 1})
	if code != http.StatusOK || !st.Cached {
		t.Fatalf("repeat submission: HTTP %d cached=%v, want 200 cached=true", code, st.Cached)
	}
	if got := fetchResults(t, base, st.ID); !quasiclique.SetsEqual(got, serialSets(t, g, params[0])) {
		t.Fatalf("cached results diverge from serial")
	}
	if hits := metricValue(t, base, "qcserved_cache_hits_total"); hits != 1 {
		t.Fatalf("cache hits = %d, want 1", hits)
	}
	if n := metricValue(t, base, "qcserved_jobs_submitted_total"); n != 4 {
		t.Fatalf("submitted = %d, want 4", n)
	}
}

// blockingBackend serves canned results but holds every Mine call
// until its gate is closed (or the job context aborts), so tests can
// park jobs in the running state deterministically.
type blockingBackend struct {
	mu    sync.Mutex
	gate  chan struct{} // nil: complete immediately
	calls int
}

func (b *blockingBackend) Mine(ctx context.Context, cfg miner.Config) (*miner.Result, error) {
	b.mu.Lock()
	b.calls++
	gate := b.gate
	b.mu.Unlock()
	if gate != nil {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-gate:
		}
	}
	return &miner.Result{Cliques: [][]graph.V{{1, 2, 3}}, Engine: &gthinker.Metrics{}}, nil
}

func (b *blockingBackend) Close() error { return nil }

// TestServeCancelFreesQuota drives the admission quota end to end:
// fill it, get 429, cancel a queued job and a running job, watch the
// quota free up, and confirm the backend still completes a clean job
// afterwards.
func TestServeCancelFreesQuota(t *testing.T) {
	backend := &blockingBackend{gate: make(chan struct{})}
	srv := NewServer(Config{Backend: backend, Fingerprint: "fake", Quota: 2, CacheSize: -1})
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	req := func(minSize int) JobRequest { return JobRequest{Gamma: 0.9, MinSize: minSize} }
	j1, err := srv.Submit(req(3)) // runs, blocked on the gate
	if err != nil {
		t.Fatal(err)
	}
	j2, err := srv.Submit(req(4)) // queued behind j1
	if err != nil {
		t.Fatal(err)
	}
	var ae *apiError
	if _, err := srv.Submit(req(5)); !errors.As(err, &ae) || ae.code != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit: err = %v, want 429", err)
	}

	// Cancel the QUEUED job over HTTP: it must terminate without ever
	// reaching the backend, and its slot must free.
	reqDel, _ := http.NewRequest(http.MethodDelete, hs.URL+"/v1/jobs/"+j2.id, nil)
	if resp, err := http.DefaultClient.Do(reqDel); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}
	st := waitDone(t, hs.URL, j2.id)
	if st.State != string(StateCanceled) {
		t.Fatalf("canceled queued job state = %s, want canceled", st.State)
	}
	waitQuota(t, srv, 1)
	if _, err := srv.Submit(req(5)); err != nil {
		t.Fatalf("submit after freeing quota: %v", err)
	}

	// Cancel the RUNNING job: its context aborts the backend call.
	j1.cancel()
	if st := waitDone(t, hs.URL, j1.id); st.State != string(StateCanceled) {
		t.Fatalf("canceled running job state = %s, want canceled", st.State)
	}

	// The runtime is reusable after both cancellations: open the gate
	// and the remaining queued job (and a fresh one) complete cleanly.
	backend.mu.Lock()
	gate := backend.gate
	backend.gate = nil
	backend.mu.Unlock()
	close(gate)
	j4, err := srv.Submit(req(6))
	if err != nil {
		t.Fatal(err)
	}
	if st := waitDone(t, hs.URL, j4.id); st.State != string(StateDone) {
		t.Fatalf("post-cancel job state = %s (err %q), want done", st.State, st.Error)
	}
	backend.mu.Lock()
	calls := backend.calls
	backend.mu.Unlock()
	if calls < 2 {
		t.Fatalf("backend ran %d jobs, want ≥ 2 (canceled-queued job must not reach it)", calls)
	}
}

func waitQuota(t *testing.T, srv *Server, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		srv.mu.Lock()
		active := srv.active
		srv.mu.Unlock()
		if active == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("active jobs never reached %d", want)
}

// TestServeBadRequests covers the API's refusals: malformed JSON,
// invalid parameters, an oversized body, unknown jobs, and premature
// result fetches.
func TestServeBadRequests(t *testing.T) {
	backend := &blockingBackend{gate: make(chan struct{})}
	defer close(backend.gate)
	srv := NewServer(Config{Backend: backend, Fingerprint: "fake"})
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	post := func(body string) int {
		resp, err := http.Post(hs.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post("{not json"); code != http.StatusBadRequest {
		t.Fatalf("malformed body: HTTP %d, want 400", code)
	}
	if code := post(`{"gamma":0.2,"min_size":5}`); code != http.StatusBadRequest {
		t.Fatalf("invalid gamma: HTTP %d, want 400", code)
	}
	// A request naming a field the API does not have is refused, not
	// admitted with the field dropped.
	if code := post(`{"gamma":0.9,"min_size":4,"dense_threshold":-1}`); code != http.StatusBadRequest {
		t.Fatalf("unknown field: HTTP %d, want 400", code)
	}
	// A well-formed request padded past the body cap: without the cap
	// it would be admitted.
	huge := `{"gamma":0.9,` + strings.Repeat(" ", maxJobRequestBytes) + `"min_size":5}`
	if code := post(huge); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: HTTP %d, want 413", code)
	}
	srv.mu.Lock()
	admitted := len(srv.jobs)
	srv.mu.Unlock()
	if admitted != 0 {
		t.Fatalf("%d jobs exist after four refused submissions", admitted)
	}
	if resp, err := http.Get(hs.URL + "/v1/jobs/j999"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("unknown job: HTTP %d, want 404", resp.StatusCode)
		}
	}

	j, err := srv.Submit(JobRequest{Gamma: 0.9, MinSize: 5})
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := http.Get(hs.URL + "/v1/jobs/" + j.id + "/results"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusConflict {
			t.Fatalf("results before done: HTTP %d, want 409", resp.StatusCode)
		}
	}
}

// TestServeFinishedJobRetention pushes 1 000 jobs through one server:
// it may remember no more finished jobs than its retention cap, the
// forgotten ids must answer 404, the remembered ones 200, and a job
// still running is kept however many finish around it.
func TestServeFinishedJobRetention(t *testing.T) {
	const retain, total = 16, 1000
	backend := &blockingBackend{}
	srv := NewServer(Config{Backend: backend, Fingerprint: "fake", CacheSize: retain})
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	code := func(id string) int {
		resp, err := http.Get(hs.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	var ids []string
	submit := func(minSize int) *job {
		j, err := srv.Submit(JobRequest{Gamma: 0.9, MinSize: minSize})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.id)
		return j
	}

	// Mined jobs, every fourth a repeat of its predecessor (a cache
	// hit, finished the moment it is admitted).
	for i := 0; i < total/2; i++ {
		submit(2 + i - i%4/3)
		waitQuota(t, srv, 0)
	}
	// Then a job held in the running state while cache hits finish
	// around it.
	gate := make(chan struct{})
	backend.mu.Lock()
	backend.gate = gate
	backend.mu.Unlock()
	running := submit(2 + total)
	ids = ids[:len(ids)-1]
	for len(ids) < total {
		if j := submit(total / 2); !j.cached {
			t.Fatalf("job %s was mined, want a cache hit", j.id)
		}
	}

	srv.mu.Lock()
	jobs, order, finished := len(srv.jobs), len(srv.order), len(srv.finished)
	srv.mu.Unlock()
	if finished != retain || jobs != retain+1 || order != retain+1 {
		t.Fatalf("server remembers %d jobs (%d listed, %d finished), want %d finished + 1 running", jobs, order, finished, retain)
	}
	for i, id := range ids {
		want := http.StatusNotFound
		if i >= total-retain {
			want = http.StatusOK
		}
		if got := code(id); got != want {
			t.Fatalf("job %s (%d of %d): status %d, want %d", id, i+1, total, got, want)
		}
	}
	if got := code(running.id); got != http.StatusOK {
		t.Fatalf("running job %s was forgotten: status %d", running.id, got)
	}
	close(gate)
	if st := waitDone(t, hs.URL, running.id); st.State != string(StateDone) {
		t.Fatalf("held job ended %s", st.State)
	}
}

// TestServeSelectiveJobFloor is the job-floor regression at the
// service boundary: a selective query — one whose degree test passes
// no vertex of a 60 000-vertex sparse graph — must be answered in
// milliseconds by a warm server, submit to done. It took ~0.6 s while
// the engine slept through the spawn scan.
func TestServeSelectiveJobFloor(t *testing.T) {
	g := datagen.ErdosRenyiM(60000, 180000, 7)
	srv := NewServer(Config{
		Backend:     SessionBackend(miner.NewSession(g, gthinker.Config{Machines: 1, WorkersPerMachine: 2})),
		Fingerprint: "sparse",
	})
	defer srv.Close()
	var walls []time.Duration
	for i := 0; i < 6; i++ { // distinct queries, so none is a cache hit; the first warms the session
		start := time.Now()
		j, err := srv.Submit(JobRequest{Gamma: 0.9, MinSize: 40 + i})
		if err != nil {
			t.Fatal(err)
		}
		<-j.qj.Done()
		if err := j.qj.Err(); err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			walls = append(walls, time.Since(start))
		}
	}
	slices.Sort(walls)
	if median := walls[len(walls)/2]; median >= 100*time.Millisecond {
		t.Fatalf("median selective job took %v (all: %v), want < 100ms", median, walls)
	}
}
