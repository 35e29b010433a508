package serve

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strings"
	"sync"
	"time"

	"gthinkerqc/internal/miner"
	"gthinkerqc/internal/obs"
	"gthinkerqc/internal/quasiclique"
)

// Backend mines one job at a time against a fixed graph.
// *miner.Session is the implementation; tests substitute fakes.
type Backend interface {
	Mine(ctx context.Context, cfg miner.Config) (*miner.Result, error)
	Close() error
}

// SessionBackend serves jobs from a mining session, wherever its
// machines live.
func SessionBackend(s *miner.Session) Backend { return s }

// PoolBackend is SessionBackend, under the name it had when a pool of
// worker processes was a type of its own.
func PoolBackend(p *miner.Session) Backend { return SessionBackend(p) }

// JobRequest is the POST /v1/jobs body: the per-query parameters.
// Everything beyond gamma/min_size is optional.
type JobRequest struct {
	Gamma   float64 `json:"gamma"`
	MinSize int     `json:"min_size"`
	// TauSplitOpt / TauTimeMS tune decomposition (defaults 256 / 100).
	TauSplit  int   `json:"tau_split,omitempty"`
	TauTimeMS int64 `json:"tau_time_ms,omitempty"`
	// TimeBudgetMS bounds the job's wall time; an expired budget
	// completes the job with the partial results found so far.
	TimeBudgetMS int64 `json:"time_budget_ms,omitempty"`
	// Priority orders the queue (higher first, FIFO within a band).
	Priority int `json:"priority,omitempty"`
	// SizeThresholdOnly decomposes by τsplit alone (Algorithm 8).
	SizeThresholdOnly bool `json:"size_threshold_only,omitempty"`
	// KeepNonMaximal skips the maximality post-filter: the job returns
	// every distinct emission that survives the miner's screen.
	KeepNonMaximal bool `json:"keep_non_maximal,omitempty"`
}

// maxJobRequestBytes caps a POST /v1/jobs body. A job request is a few
// hundred bytes of JSON; anything near this is not one.
const maxJobRequestBytes = 64 << 10

// config maps the request onto a miner job config.
func (r JobRequest) config(defaultBudget time.Duration) miner.Config {
	cfg := miner.Config{
		Params:     quasiclique.Params{Gamma: r.Gamma, MinSize: r.MinSize},
		TauSplit:   r.TauSplit,
		TauTime:    time.Duration(r.TauTimeMS) * time.Millisecond,
		TimeBudget: time.Duration(r.TimeBudgetMS) * time.Millisecond,
	}
	if r.SizeThresholdOnly {
		cfg.Strategy = miner.SizeThreshold
	}
	cfg.Options.SkipMaximalityFilter = r.KeepNonMaximal
	if cfg.TimeBudget == 0 {
		cfg.TimeBudget = defaultBudget
	}
	return cfg
}

// Config shapes the service.
type Config struct {
	// Backend runs the jobs. Required; closed by Server.Close.
	Backend Backend
	// Fingerprint identifies the served graph in the result cache key
	// (e.g. "path:|V|:|E|"). Cached entries never cross fingerprints.
	Fingerprint string
	// Quota caps jobs in flight (queued + running); submissions over
	// it are answered 429. Default 64.
	Quota int
	// CacheSize is the LRU result cache capacity in entries (0 =
	// default 128, negative disables caching). The server also keeps
	// that many finished jobs (128 without a cache) addressable by id;
	// older ones are forgotten and answer 404.
	CacheSize int
	// DefaultBudget applies to jobs submitted without a time budget;
	// 0 means such jobs are unbounded.
	DefaultBudget time.Duration
}

// JobState is the service-level lifecycle of a submitted job.
type JobState string

const (
	StateQueued   JobState = "queued"
	StateRunning  JobState = "running"
	StateDone     JobState = "done"
	StateFailed   JobState = "failed"
	StateCanceled JobState = "canceled"
)

// job is one submission and (eventually) its outcome. The fields
// above state never change after admission; state and those below it
// are guarded by Server.mu.
type job struct {
	id     string
	req    JobRequest
	cfg    miner.Config
	key    [32]byte // result cache key
	cached bool
	ctx    context.Context // nil for cache hits
	cancel context.CancelFunc

	state   JobState // queued → running → done, failed or canceled
	partial bool     // aborted early; results are a valid subset
	result  *miner.Result
	errMsg  string
	wall    time.Duration
}

// Server is the HTTP service over one Backend. It owns the job queue:
// one dispatcher goroutine runs the queued jobs on the backend one at
// a time, highest priority first, FIFO within a priority band — the
// G-thinker composition underneath runs exactly one job's tasks across
// its machines, so overlap lives at admission, not execution.
type Server struct {
	cfg   Config
	cache *lruCache

	mu       sync.Mutex
	wake     *sync.Cond    // on mu: the queue grew or the server closed
	idle     chan struct{} // closed when the dispatcher exits
	queue    []*job        // queued jobs in admission order
	jobs     map[string]*job
	order    []string // submission order, for listing
	finished []string // finish order: the retained terminal jobs, oldest first
	retain   int      // cap on finished; queued and running jobs are never dropped
	seq      uint64
	active   int // queued + running, the quota denominator
	closed   bool

	submitted uint64
	completed uint64
	failed    uint64
	canceled  uint64
	cacheHits uint64
}

// NewServer wires the service and starts its dispatcher. Call Close to
// stop both and the backend.
func NewServer(cfg Config) *Server {
	if cfg.Quota == 0 {
		cfg.Quota = 64
	}
	retain := cfg.CacheSize
	if retain <= 0 {
		retain = 128
	}
	var cache *lruCache
	if cfg.CacheSize >= 0 {
		cache = newLRUCache(retain)
	}
	s := &Server{
		cfg:    cfg,
		cache:  cache,
		idle:   make(chan struct{}),
		jobs:   make(map[string]*job),
		retain: retain,
	}
	s.wake = sync.NewCond(&s.mu)
	go s.dispatch()
	return s
}

// retire records that job id reached a terminal state and forgets the
// oldest finished jobs beyond the retention cap, result sets included:
// a long-lived server's memory must not grow with the jobs it has
// served. Caller holds s.mu.
func (s *Server) retire(id string) {
	s.finished = append(s.finished, id)
	for len(s.finished) > s.retain {
		old := s.finished[0]
		s.finished = s.finished[1:]
		delete(s.jobs, old)
		if i := slices.Index(s.order, old); i >= 0 {
			s.order = slices.Delete(s.order, i, i+1)
		}
	}
}

// Close cancels every live job, waits for the running one to return,
// and closes the backend. Every admitted job is terminal once Close
// returns.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for _, j := range s.jobs { // finish may delete retired entries; a map range allows that
		s.cancelLocked(j)
	}
	s.wake.Signal()
	s.mu.Unlock()
	<-s.idle
	return s.cfg.Backend.Close()
}

// cacheKey is the LRU key: the graph fingerprint plus the canonical
// job spec — the job-spec encoding of the query with the wall budget
// zeroed (a budget changes when the job stops, not what a COMPLETED
// job finds) and defaults applied, so equivalent submissions collide
// regardless of how sparsely they were written.
func (s *Server) cacheKey(cfg miner.Config) [32]byte {
	cfg.TimeBudget = 0
	spec := miner.AppendJobSpec([]byte(s.cfg.Fingerprint), cfg)
	return sha256.Sum256(spec)
}

// Submit admits a job (or answers it from the cache). It is the
// programmatic core of POST /v1/jobs.
func (s *Server) Submit(req JobRequest) (*job, error) {
	cfg, err := miner.ValidateJob(req.config(s.cfg.DefaultBudget))
	if err != nil {
		return nil, &apiError{http.StatusBadRequest, err.Error()}
	}
	key := s.cacheKey(cfg)

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, &apiError{http.StatusServiceUnavailable, "server is shutting down"}
	}
	s.seq++
	id := fmt.Sprintf("j%d", s.seq)
	j := &job{id: id, req: req, cfg: cfg, key: key, state: StateQueued}
	if s.cache != nil {
		if res, ok := s.cache.get(key); ok {
			j.state = StateDone
			j.cached = true
			j.result = res
			s.jobs[id] = j
			s.order = append(s.order, id)
			s.retire(id)
			s.submitted++
			s.cacheHits++
			s.completed++
			return j, nil
		}
	}
	if s.active >= s.cfg.Quota {
		s.seq-- // the rejected submission never existed
		return nil, &apiError{http.StatusTooManyRequests,
			fmt.Sprintf("job quota (%d in flight) exceeded; retry later", s.cfg.Quota)}
	}
	j.ctx, j.cancel = context.WithCancel(context.Background())
	s.active++
	s.submitted++
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.queue = append(s.queue, j)
	s.wake.Signal()
	return j, nil
}

// dispatch is the queue's single consumer: take the earliest job of
// the highest priority, mine it to completion, finalize it, repeat. A
// linear scan is enough, because Quota bounds the queue. It exits once
// the server is closed and the queue is empty.
func (s *Server) dispatch() {
	defer close(s.idle)
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		for len(s.queue) == 0 && !s.closed {
			s.wake.Wait()
		}
		if len(s.queue) == 0 {
			return
		}
		next := 0
		for i, j := range s.queue {
			if j.req.Priority > s.queue[next].req.Priority {
				next = i
			}
		}
		j := s.queue[next]
		s.queue = slices.Delete(s.queue, next, next+1)
		j.state = StateRunning
		s.mu.Unlock()

		start := time.Now()
		res, err := s.cfg.Backend.Mine(j.ctx, j.cfg)
		if err == nil && j.ctx.Err() != nil {
			// Canceled mid-run, but the backend still finished cleanly.
			err = j.ctx.Err()
		}

		s.mu.Lock()
		j.result = res
		j.wall = time.Since(start)
		s.finish(j, err)
	}
}

// finish moves a queued or running job to its terminal state and
// settles everything the job held: counters, quota, retention and
// (for clean completions) the result cache. Caller holds s.mu.
func (s *Server) finish(j *job, err error) {
	switch {
	case err == nil:
		j.state = StateDone
		s.completed++
		if j.result != nil && s.cache != nil {
			s.cache.put(j.key, j.result)
		}
	case errors.Is(err, context.DeadlineExceeded):
		// The job's own budget expired: it completed with the partial
		// results found inside the budget — that is the contract, not
		// a failure.
		j.state = StateDone
		j.partial = true
		s.completed++
	case errors.Is(err, context.Canceled):
		j.state = StateCanceled
		j.partial = j.result != nil
		s.canceled++
	default:
		j.state = StateFailed
		s.failed++
	}
	if err != nil {
		j.errMsg = err.Error()
	}
	j.cancel()
	s.active--
	s.retire(j.id)
}

// cancelLocked aborts j: a queued job is finalized on the spot and
// never reaches the backend; a running job has its context fired and
// is finalized by the dispatcher once Mine returns. A no-op on
// terminal jobs. Caller holds s.mu.
func (s *Server) cancelLocked(j *job) {
	switch j.state {
	case StateQueued:
		i := slices.Index(s.queue, j)
		s.queue = slices.Delete(s.queue, i, i+1)
		s.finish(j, context.Canceled)
	case StateRunning:
		j.cancel()
	}
}

// get returns a job by id.
func (s *Server) get(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// jobStatus is the wire form of a job's state.
type jobStatus struct {
	ID      string  `json:"id"`
	State   string  `json:"state"`
	Gamma   float64 `json:"gamma"`
	MinSize int     `json:"min_size"`
	Cached  bool    `json:"cached,omitempty"`
	Partial bool    `json:"partial,omitempty"`
	Cliques int     `json:"cliques,omitempty"`
	// Candidates counts candidate emissions that survive the miner's
	// screen, repeats included, before deduplication and the
	// maximality filter (miner.Result.Candidates).
	Candidates int    `json:"candidates,omitempty"`
	WallMS     int64  `json:"wall_ms,omitempty"`
	Error      string `json:"error,omitempty"`
}

// status snapshots j. Caller holds the server's lock.
func (j *job) status() jobStatus {
	st := jobStatus{
		ID: j.id, State: string(j.state), Gamma: j.req.Gamma, MinSize: j.req.MinSize,
		Cached: j.cached, Partial: j.partial, Error: j.errMsg,
		WallMS: j.wall.Milliseconds(),
	}
	if j.result != nil {
		st.Cliques = len(j.result.Cliques)
		st.Candidates = j.result.Candidates
	}
	return st
}

// status snapshots j under the server's lock.
func (s *Server) status(j *job) jobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	return j.status()
}

// cancel aborts j (see cancelLocked) and returns its status after.
func (s *Server) cancel(j *job) jobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cancelLocked(j)
	return j.status()
}

// apiError carries an HTTP status with a message.
type apiError struct {
	code int
	msg  string
}

func (e *apiError) Error() string { return e.msg }

// Handler returns the HTTP mux for the service.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/v1/jobs", s.handleJobs)
	mux.HandleFunc("/v1/jobs/", s.handleJob)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, err error) {
	var ae *apiError
	if errors.As(err, &ae) {
		writeJSON(w, ae.code, map[string]string{"error": ae.msg})
		return
	}
	writeJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		var req JobRequest
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxJobRequestBytes))
		dec.DisallowUnknownFields() // a misspelled or retired option is an error, not a no-op
		if err := dec.Decode(&req); err != nil {
			code := http.StatusBadRequest
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				code = http.StatusRequestEntityTooLarge
			}
			writeErr(w, &apiError{code, "malformed job request: " + err.Error()})
			return
		}
		j, err := s.Submit(req)
		if err != nil {
			writeErr(w, err)
			return
		}
		code := http.StatusAccepted
		if j.cached {
			code = http.StatusOK // the answer already exists
		}
		writeJSON(w, code, s.status(j))
	case http.MethodGet:
		s.mu.Lock()
		list := make([]jobStatus, 0, len(s.order))
		for _, id := range s.order {
			list = append(list, s.jobs[id].status())
		}
		s.mu.Unlock()
		writeJSON(w, http.StatusOK, map[string]any{"jobs": list})
	default:
		writeErr(w, &apiError{http.StatusMethodNotAllowed, "use POST or GET"})
	}
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
	id, sub, _ := strings.Cut(rest, "/")
	j, ok := s.get(id)
	if !ok {
		writeErr(w, &apiError{http.StatusNotFound, "no such job: " + id})
		return
	}
	switch {
	case sub == "" && r.Method == http.MethodGet:
		writeJSON(w, http.StatusOK, s.status(j))
	case sub == "" && r.Method == http.MethodDelete:
		writeJSON(w, http.StatusOK, s.cancel(j))
	case sub == "results" && r.Method == http.MethodGet:
		s.streamResults(w, j)
	default:
		writeErr(w, &apiError{http.StatusNotFound, "unknown job endpoint"})
	}
}

// streamResults writes the job's quasi-cliques as NDJSON: one JSON
// array of vertex IDs per line.
func (s *Server) streamResults(w http.ResponseWriter, j *job) {
	s.mu.Lock()
	state, res := j.state, j.result
	s.mu.Unlock()
	if state == StateQueued || state == StateRunning {
		writeErr(w, &apiError{http.StatusConflict, "job has not finished; poll its status"})
		return
	}
	if res == nil {
		writeErr(w, &apiError{http.StatusConflict, "job finished without results: " + string(state)})
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	for _, qc := range res.Cliques {
		if err := enc.Encode(qc); err != nil {
			return // client went away mid-stream
		}
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	entries := 0
	if s.cache != nil {
		entries = s.cache.len()
	}
	samples := []obs.Sample{
		{Name: "qcserved_jobs_submitted_total", Help: "jobs accepted, cache hits included", Value: float64(s.submitted)},
		{Name: "qcserved_jobs_completed_total", Help: "jobs that reached done, cache hits and expired budgets included", Value: float64(s.completed)},
		{Name: "qcserved_jobs_failed_total", Help: "jobs that ended failed", Value: float64(s.failed)},
		{Name: "qcserved_jobs_canceled_total", Help: "jobs that ended canceled", Value: float64(s.canceled)},
		{Name: "qcserved_jobs_active", Help: "jobs queued or mining now", Value: float64(s.active)},
		{Name: "qcserved_cache_hits_total", Help: "submissions answered from the result cache", Value: float64(s.cacheHits)},
		{Name: "qcserved_cache_entries", Help: "result sets held by the cache", Value: float64(entries)},
	}
	s.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = obs.WriteExposition(w, samples) // a failed write means the scraper went away
}
