package gthinker

import (
	"sync/atomic"

	"gthinkerqc/internal/graph"
)

var taskSeq atomic.Uint64

// Task is one unit of divide-and-conquer work. The engine treats the
// payload opaquely; apps cast it back in their Compute UDF and
// serialize it through their TaskCodec half.
type Task struct {
	ID      uint64
	Payload any
	// Pulls holds the vertex IDs requested by the previous Compute
	// iteration; the engine resolves them into the frontier passed to
	// the next iteration.
	Pulls []graph.V

	// frontier holds the resolved adjacency lists, parallel to Pulls,
	// while the task sits in a ready buffer: a window of its resolve
	// batch's one allocation. Never spilled (only queued, unresolved
	// tasks are spilled to disk).
	frontier [][]graph.V
	// pinned lists the remote members of Pulls, each holding one cache
	// reference on this task's behalf, released after Compute returns.
	pinned []graph.V
}

// NewTask returns a Task with a fresh unique ID and the given payload.
func NewTask(payload any) *Task {
	return &Task{ID: taskSeq.Add(1), Payload: payload}
}

// Ctx is handed to the Compute UDF for requesting vertex pulls and
// emitting new (sub)tasks.
type Ctx struct {
	// WorkerID is the executing worker's index on its machine, in
	// [0, WorkersPerMachine). Every machine runs its own App, so apps
	// index per-worker state (result lists, scratch) with it.
	WorkerID int
	// MachineID is the executing machine.
	MachineID int

	pulls    []graph.V
	newTasks []*Task
	aborted  func() bool
}

// Aborted reports whether the job is being torn down (cancellation or
// engine failure) while a Compute call is in flight. Long-running
// Compute implementations should poll it and return early.
func (c *Ctx) Aborted() bool {
	return c.aborted != nil && c.aborted()
}

// Pull requests the adjacency list of v for the next iteration.
func (c *Ctx) Pull(v graph.V) { c.pulls = append(c.pulls, v) }

// AddTask schedules a new task; the engine routes it to the global or
// a local queue depending on App.IsBig.
func (c *Ctx) AddTask(t *Task) { c.newTasks = append(c.newTasks, t) }

func (c *Ctx) reset() {
	c.pulls = c.pulls[:0]
	c.newTasks = c.newTasks[:0]
}

// App is the user-defined-function interface of G-thinker (Section 5):
// Spawn creates the initial task for a vertex of the local table, and
// Compute processes one task iteration against the frontier of pulled
// adjacency lists, returning true if the task needs more iterations.
// Every App also serializes its own task payloads (TaskCodec): queued
// tasks spill to disk and stolen ones cross the wire in one format.
type App interface {
	TaskCodec

	// Spawn may return nil to skip the vertex. adj is the vertex's
	// adjacency list in the (immutable) global graph.
	Spawn(v graph.V, adj []graph.V, ctx *Ctx) *Task
	// Compute runs one iteration of t. frontier is parallel to t.Pulls:
	// frontier[i] is the adjacency list of t.Pulls[i], in the order the
	// previous iteration (or Spawn) requested them; it is nil when that
	// iteration pulled nothing. The slice and its rows are only valid
	// during the call (the paper: "vertices in frontier are released by
	// G-thinker right after compute returns") — copy what must outlive
	// it.
	Compute(t *Task, frontier [][]graph.V, ctx *Ctx) bool
	// IsBig classifies a task: big tasks go to the machine-shared
	// global queue and are eligible for stealing. For the miner this
	// is |ext(S)| > τsplit.
	IsBig(t *Task) bool
	// Results encodes what the stopped workers found: the opaque result
	// frame of the machine's shutdown report, the only way out for them.
	Results() ([]byte, error)
}

// TaskCodec is the payload-serialization half of App, named on its own
// because a TaskServer needs nothing else. Payloads travel inside the
// columnar GQS1 batch format of internal/store: spill writes each
// payload's flat arrays verbatim (the miner's are vertex IDs and a
// subtask's bit rows) and refill is one sequential read plus pointer
// fix-up, with no reflection and no per-field allocation.
type TaskCodec interface {
	// AppendTaskPayload appends the payload's raw encoding to dst and
	// returns the extended buffer (append-style).
	AppendTaskPayload(dst []byte, payload any) ([]byte, error)
	// DecodeTaskPayload reconstructs a payload from the bytes written
	// by AppendTaskPayload. The returned payload may alias data, which
	// stays live and is never reused by the engine.
	DecodeTaskPayload(data []byte) (any, error)
}
