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
		SpillDir: t.TempDir(),
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
// until its gate is closed (or, unless ignoreCtx is set, the job
// context aborts), so tests can park jobs in the running state
// deterministically. It records each call's MinSize, which the tests
// use as a job tag, and the most calls it ever saw in flight at once.
type blockingBackend struct {
	mu          sync.Mutex
	gate        chan struct{} // nil: complete immediately
	ignoreCtx   bool          // hold until the gate opens even after ctx fires
	mined       []int         // MinSize of each Mine call, in call order
	inFlight    int
	maxInFlight int
}

func (b *blockingBackend) Mine(ctx context.Context, cfg miner.Config) (*miner.Result, error) {
	b.mu.Lock()
	b.mined = append(b.mined, cfg.Params.MinSize)
	b.inFlight++
	b.maxInFlight = max(b.maxInFlight, b.inFlight)
	gate, ignoreCtx := b.gate, b.ignoreCtx
	b.mu.Unlock()
	defer func() {
		b.mu.Lock()
		b.inFlight--
		b.mu.Unlock()
	}()
	switch {
	case gate == nil:
	case ignoreCtx:
		<-gate
	default:
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-gate:
		}
	}
	return &miner.Result{Cliques: [][]graph.V{{1, 2, 3}}, Engine: &gthinker.Metrics{}}, nil
}

func (b *blockingBackend) Close() error { return nil }

// open releases every held and future Mine call. Idempotent.
func (b *blockingBackend) open() {
	b.mu.Lock()
	gate := b.gate
	b.gate = nil
	b.mu.Unlock()
	if gate != nil {
		close(gate)
	}
}

// minedTags returns the MinSize of every Mine call so far.
func (b *blockingBackend) minedTags() []int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return slices.Clone(b.mined)
}

// waitMined waits until the backend has been called n times.
func waitMined(t *testing.T, b *blockingBackend, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for len(b.minedTags()) < n {
		if time.Now().After(deadline) {
			t.Fatalf("backend reached %d Mine calls, want %d", len(b.minedTags()), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// waitJob waits until j is terminal and returns its status.
func waitJob(t *testing.T, srv *Server, j *job) jobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := srv.status(j)
		if st.State != string(StateQueued) && st.State != string(StateRunning) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s", j.id, st.State)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func deleteJob(t *testing.T, base, id string) jobStatus {
	t.Helper()
	req, _ := http.NewRequest(http.MethodDelete, base+"/v1/jobs/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE %s: HTTP %d", id, resp.StatusCode)
	}
	var st jobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func activeJobs(srv *Server) int {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	return srv.active
}

// TestServeQueuePriorityFIFO checks the dispatch contract: one Mine
// call at a time, higher priorities first, FIFO within a band.
func TestServeQueuePriorityFIFO(t *testing.T) {
	backend := &blockingBackend{gate: make(chan struct{})}
	srv := NewServer(Config{Backend: backend, Fingerprint: "fake", CacheSize: -1})
	defer srv.Close()

	submit := func(tag, priority int) *job {
		j, err := srv.Submit(JobRequest{Gamma: 0.9, MinSize: tag, Priority: priority})
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	// Job 2 runs and holds the backend while the rest queue up behind
	// it: two bands, admitted interleaved.
	jobs := []*job{submit(2, 0)}
	waitMined(t, backend, 1)
	for _, q := range [][2]int{{3, 0}, {4, 5}, {5, 0}, {6, 5}, {7, -1}} {
		jobs = append(jobs, submit(q[0], q[1]))
	}
	if st := srv.status(jobs[0]); st.State != string(StateRunning) {
		t.Fatalf("held job reads %s, want running", st.State)
	}
	if st := srv.status(jobs[1]); st.State != string(StateQueued) {
		t.Fatalf("waiting job reads %s, want queued", st.State)
	}
	backend.open()
	for _, j := range jobs {
		if st := waitJob(t, srv, j); st.State != string(StateDone) {
			t.Fatalf("job %s ended %s", j.id, st.State)
		}
	}
	if got, want := backend.minedTags(), []int{2, 4, 6, 3, 5, 7}; !slices.Equal(got, want) {
		t.Fatalf("mine order %v, want %v", got, want)
	}
	backend.mu.Lock()
	defer backend.mu.Unlock()
	if backend.maxInFlight != 1 {
		t.Fatalf("%d Mine calls overlapped", backend.maxInFlight)
	}
}

// TestServeCancelFreesQuota drives the admission quota end to end:
// fill it, get 429, cancel a queued job and a running job, watch the
// quota free up, and confirm the backend still completes a clean job
// afterwards. The canceled queued job must never reach the backend.
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
	deleteJob(t, hs.URL, j2.id)
	st := waitDone(t, hs.URL, j2.id)
	if st.State != string(StateCanceled) {
		t.Fatalf("canceled queued job state = %s, want canceled", st.State)
	}
	waitQuota(t, srv, 1)
	j3, err := srv.Submit(req(5))
	if err != nil {
		t.Fatalf("submit after freeing quota: %v", err)
	}

	// Cancel the RUNNING job: its context aborts the backend call, and
	// the job queued behind it is dispatched (still held by the gate).
	srv.cancel(j1)
	if st := waitDone(t, hs.URL, j1.id); st.State != string(StateCanceled) {
		t.Fatalf("canceled running job state = %s, want canceled", st.State)
	}
	waitMined(t, backend, 2)

	// The runtime is reusable after both cancellations: open the gate
	// and the remaining queued job (and a fresh one) complete cleanly.
	backend.open()
	j4, err := srv.Submit(req(6))
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range []*job{j3, j4} {
		if st := waitDone(t, hs.URL, j.id); st.State != string(StateDone) {
			t.Fatalf("post-cancel job %s state = %s (err %q), want done", j.id, st.State, st.Error)
		}
	}
	if got, want := backend.minedTags(), []int{3, 5, 6}; !slices.Equal(got, want) {
		t.Fatalf("backend mined %v, want %v (the canceled queued job must not reach it)", got, want)
	}
}

// TestServeCancelQueuedAndRunning covers both cancellation paths
// without HTTP or a quota: a queued job is dropped without ever
// reaching Mine, and a running job has its context fired and ends
// canceled while the gate is still shut, without wedging the
// dispatcher for the job submitted after it.
func TestServeCancelQueuedAndRunning(t *testing.T) {
	backend := &blockingBackend{gate: make(chan struct{})}
	srv := NewServer(Config{Backend: backend, Fingerprint: "fake", CacheSize: -1})
	defer srv.Close()
	defer backend.open()

	submit := func(tag int) *job {
		j, err := srv.Submit(JobRequest{Gamma: 0.9, MinSize: tag})
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	blocker := submit(3)
	waitMined(t, backend, 1)
	queued := submit(4)
	if st := srv.cancel(queued); st.State != string(StateCanceled) {
		t.Fatalf("canceled queued job reads %s, want canceled", st.State)
	}

	// Only the job's context can end this Mine call: the gate stays shut.
	srv.cancel(blocker)
	if st := waitJob(t, srv, blocker); st.State != string(StateCanceled) {
		t.Fatalf("canceled running job ended %s, want canceled", st.State)
	}

	backend.open()
	after := submit(5)
	if st := waitJob(t, srv, after); st.State != string(StateDone) {
		t.Fatalf("job after cancellations ended %s (err %q), want done", st.State, st.Error)
	}
	if got, want := backend.minedTags(), []int{3, 5}; !slices.Equal(got, want) {
		t.Fatalf("backend mined %v, want %v (the canceled queued job must not reach it)", got, want)
	}
}

// TestServeCancelRunningReadsRunning cancels a running job whose
// backend does not look at its context: the job must read "running"
// (not "queued") until Mine returns, and "canceled" after.
func TestServeCancelRunningReadsRunning(t *testing.T) {
	backend := &blockingBackend{gate: make(chan struct{}), ignoreCtx: true}
	srv := NewServer(Config{Backend: backend, Fingerprint: "fake"})
	defer srv.Close()
	defer backend.open() // a failed check must not leave Close waiting on Mine
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	j, err := srv.Submit(JobRequest{Gamma: 0.9, MinSize: 3})
	if err != nil {
		t.Fatal(err)
	}
	waitMined(t, backend, 1)
	if st := deleteJob(t, hs.URL, j.id); st.State != string(StateRunning) {
		t.Fatalf("DELETE of a running job answered %s, want running", st.State)
	}
	for i := 0; i < 20; i++ {
		if st := srv.status(j); st.State != string(StateRunning) {
			t.Fatalf("canceled job reads %s while Mine is still running, want running", st.State)
		}
		time.Sleep(time.Millisecond)
	}
	backend.open()
	if st := waitJob(t, srv, j); st.State != string(StateCanceled) {
		t.Fatalf("canceled job ended %s, want canceled", st.State)
	}
	if n := metricValue(t, hs.URL, "qcserved_jobs_canceled_total"); n != 1 {
		t.Fatalf("canceled = %d, want 1", n)
	}
}

// TestServeCancelQueuedIsImmediate cancels a queued job over HTTP: the
// DELETE response itself must read "canceled", with the quota slot
// already given back.
func TestServeCancelQueuedIsImmediate(t *testing.T) {
	backend := &blockingBackend{gate: make(chan struct{})}
	srv := NewServer(Config{Backend: backend, Fingerprint: "fake"})
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	if _, err := srv.Submit(JobRequest{Gamma: 0.9, MinSize: 3}); err != nil {
		t.Fatal(err)
	}
	waitMined(t, backend, 1)
	for i := 0; i < 20; i++ {
		j, err := srv.Submit(JobRequest{Gamma: 0.9, MinSize: 4 + i})
		if err != nil {
			t.Fatal(err)
		}
		if st := deleteJob(t, hs.URL, j.id); st.State != string(StateCanceled) {
			t.Fatalf("DELETE of queued job %s answered %s, want canceled", j.id, st.State)
		}
		if n := activeJobs(srv); n != 1 {
			t.Fatalf("%d jobs active right after DELETE of %s, want 1", n, j.id)
		}
	}
	backend.open()
	if got := backend.minedTags(); !slices.Equal(got, []int{3}) {
		t.Fatalf("backend mined %v, want only the running job", got)
	}
}

// TestServeCloseFinalizesEveryJob closes a server holding a running
// job and two queued ones: Close must cancel the queued jobs without
// mining them, wait for the running one's Mine to return, and leave
// every admitted job terminal. Submissions after Close are refused
// with 503.
func TestServeCloseFinalizesEveryJob(t *testing.T) {
	backend := &blockingBackend{gate: make(chan struct{}), ignoreCtx: true}
	srv := NewServer(Config{Backend: backend, Fingerprint: "fake"})
	var jobs []*job
	for tag := 3; tag <= 5; tag++ {
		j, err := srv.Submit(JobRequest{Gamma: 0.9, MinSize: tag})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	waitMined(t, backend, 1)

	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	select {
	case <-closed:
		t.Fatal("Close returned while Mine was still running")
	case <-time.After(20 * time.Millisecond):
	}
	backend.open()
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if st := srv.status(j); st.State != string(StateCanceled) {
			t.Fatalf("job %s reads %s after Close, want canceled", j.id, st.State)
		}
	}
	if got := backend.minedTags(); !slices.Equal(got, []int{3}) {
		t.Fatalf("backend mined %v, want only the running job", got)
	}
	if n := activeJobs(srv); n != 0 {
		t.Fatalf("%d jobs active after Close", n)
	}
	var ae *apiError
	if _, err := srv.Submit(JobRequest{Gamma: 0.9, MinSize: 6}); !errors.As(err, &ae) || ae.code != http.StatusServiceUnavailable {
		t.Fatalf("submit after Close: err = %v, want 503", err)
	}
}

func waitQuota(t *testing.T, srv *Server, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if activeJobs(srv) == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("active jobs never reached %d", want)
}

// TestServeBadRequests covers the API's refusals: malformed JSON,
// invalid parameters (each check of miner.ValidateJob, refused at
// submission rather than failed in the backend), an oversized body,
// unknown jobs, and premature result fetches.
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
	for _, body := range []string{
		`{"gamma":0.2,"min_size":5}`,
		`{"gamma":0.9,"min_size":5,"tau_split":-3}`,
		`{"gamma":0.9,"min_size":5,"tau_time_ms":-5}`,
		`{"gamma":0.9,"min_size":5,"time_budget_ms":-1}`,
	} {
		if code := post(body); code != http.StatusBadRequest {
			t.Fatalf("invalid parameters %s: HTTP %d, want 400", body, code)
		}
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
		t.Fatalf("%d jobs exist after seven refused submissions", admitted)
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
		if st := waitJob(t, srv, j); st.State != string(StateDone) {
			t.Fatalf("job %s ended %s (err %q)", j.id, st.State, st.Error)
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
