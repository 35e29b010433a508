package gthinker

import (
	"fmt"
	"time"

	"gthinkerqc/internal/obs"
	"gthinkerqc/internal/store"
)

// Counters holds every scalar engine counter. All fields are uint64 and
// the struct is comparable, so one snapshot copies by value into a
// status reply, a Metrics, or the coordinator's live view. counterTable
// describes each field exactly once; the wire codec, the cluster merge
// and the Prometheus exposition are loops over that table.
type Counters struct {
	TasksSpawned  uint64 // tasks created by Spawn
	SubtasksAdded uint64 // tasks created by Compute (decomposition)
	TasksFinished uint64
	ComputeCalls  uint64
	BigTasks      uint64 // tasks routed to global queues
	SmallTasks    uint64

	LocalReads    uint64 // vertex-table reads served locally
	RemoteFetches uint64 // adjacency lists fetched across machines
	// BatchedFetches counts remote fetch round trips: the resolve path
	// groups the cache-missed pulls of a batch of C tasks by owning
	// machine, so this is O(owners) per batch where RemoteFetches is
	// O(pulls). The ratio is the latency saving of the batched RPC
	// plane.
	BatchedFetches    uint64
	WireBytesSent     uint64 // transport bytes written (frame headers included)
	WireBytesReceived uint64 // transport bytes read
	CacheHits         uint64
	CacheMisses       uint64
	CacheEvicted      uint64

	SpillFiles        uint64
	SpillBytesWritten uint64
	SpillBytesRead    uint64 // bytes read back by batch refills
	RefillBatches     uint64 // spill files refilled (and unlinked)
	PeakSpillBytes    uint64 // high-water mark of on-disk task bytes

	StealRounds uint64 // steal rounds (one per status scan) that moved at least one task
	TasksStolen uint64
	// StealErrors counts steal directives that failed against a machine
	// that had not (yet) been declared dead; they are tolerated, not
	// fatal.
	StealErrors uint64

	PeakHeapAlloc uint64 // sampled runtime heap high-water mark

	// Fault-tolerance counters. RetriedDials and RetriedOps sum each
	// machine's transport hardening retries and the control plane's — a
	// non-zero value on a "healthy" run means the cluster was quietly
	// riding through transient network trouble.
	Recoveries   uint64 // worker-loss recoveries executed
	RetriedDials uint64 // dial attempts beyond the first
	RetriedOps   uint64 // idempotent op retries beyond the first
	DeadMachines uint64 // machines declared dead by the coordinator

	// Tracing counters (zero when tracing is off): spans recorded into
	// the obs ring buffers, and spans the rings overwrote before a
	// snapshot — a non-zero TraceDropped means the exported timeline
	// has holes and the ring capacity should grow.
	TraceSpans   uint64
	TraceDropped uint64
}

// mergeRule says how one counter combines across the machines of a
// cluster.
type mergeRule uint8

const (
	mergeSum         mergeRule = iota // every machine counts its own share
	mergeMax                          // a high-water mark of something machines do not share (one heap per process)
	mergeCoordinator                  // counted by the coordinator alone: machines report zero and leave it off their /metrics
)

// counterDesc describes one Counters field.
type counterDesc struct {
	name  string // Prometheus series name; "_total" marks a counter, anything else a gauge
	help  string
	rule  mergeRule
	field func(*Counters) *uint64
}

// counterTable is the single definition of every engine counter, in
// wire order. Adding a counter is a Counters field, its row here, and
// the line that reads its source.
var counterTable = []counterDesc{
	{"gthinker_spawned_tasks_total", "root tasks created by Spawn", mergeSum, func(c *Counters) *uint64 { return &c.TasksSpawned }},
	{"gthinker_subtasks_total", "tasks created by Compute (decomposition)", mergeSum, func(c *Counters) *uint64 { return &c.SubtasksAdded }},
	{"gthinker_tasks_finished_total", "tasks whose Compute returned done", mergeSum, func(c *Counters) *uint64 { return &c.TasksFinished }},
	{"gthinker_compute_calls_total", "Compute invocations", mergeSum, func(c *Counters) *uint64 { return &c.ComputeCalls }},
	{"gthinker_big_tasks_total", "tasks routed to the machine-global queue", mergeSum, func(c *Counters) *uint64 { return &c.BigTasks }},
	{"gthinker_small_tasks_total", "tasks routed to a worker-local queue", mergeSum, func(c *Counters) *uint64 { return &c.SmallTasks }},
	{"gthinker_local_reads_total", "vertex-table reads served locally", mergeSum, func(c *Counters) *uint64 { return &c.LocalReads }},
	{"gthinker_remote_fetches_total", "adjacency lists fetched across machines", mergeSum, func(c *Counters) *uint64 { return &c.RemoteFetches }},
	{"gthinker_batched_fetches_total", "remote fetch round trips", mergeSum, func(c *Counters) *uint64 { return &c.BatchedFetches }},
	{"gthinker_wire_bytes_sent_total", "data-plane bytes written, frame headers included", mergeSum, func(c *Counters) *uint64 { return &c.WireBytesSent }},
	{"gthinker_wire_bytes_received_total", "data-plane bytes read", mergeSum, func(c *Counters) *uint64 { return &c.WireBytesReceived }},
	{"gthinker_cache_hits_total", "remote-vertex cache hits", mergeSum, func(c *Counters) *uint64 { return &c.CacheHits }},
	{"gthinker_cache_misses_total", "remote-vertex cache misses", mergeSum, func(c *Counters) *uint64 { return &c.CacheMisses }},
	{"gthinker_cache_evicted_total", "remote-vertex cache evictions", mergeSum, func(c *Counters) *uint64 { return &c.CacheEvicted }},
	{"gthinker_spill_files_total", "task spill files written", mergeSum, func(c *Counters) *uint64 { return &c.SpillFiles }},
	{"gthinker_spill_bytes_total", "task bytes spilled to disk", mergeSum, func(c *Counters) *uint64 { return &c.SpillBytesWritten }},
	{"gthinker_spill_bytes_read_total", "task bytes read back by batch refills", mergeSum, func(c *Counters) *uint64 { return &c.SpillBytesRead }},
	{"gthinker_refill_batches_total", "spill files refilled and unlinked", mergeSum, func(c *Counters) *uint64 { return &c.RefillBatches }},
	{"gthinker_peak_spill_bytes", "high-water mark of on-disk task bytes", mergeSum, func(c *Counters) *uint64 { return &c.PeakSpillBytes }},
	{"gthinker_steal_rounds_total", "status scans whose steal round moved at least one task", mergeCoordinator, func(c *Counters) *uint64 { return &c.StealRounds }},
	{"gthinker_tasks_stolen_total", "tasks moved between machines by steal directives", mergeCoordinator, func(c *Counters) *uint64 { return &c.TasksStolen }},
	{"gthinker_steal_errors_total", "steal directives that failed and were tolerated", mergeCoordinator, func(c *Counters) *uint64 { return &c.StealErrors }},
	{"gthinker_peak_heap_bytes", "sampled runtime heap high-water mark", mergeMax, func(c *Counters) *uint64 { return &c.PeakHeapAlloc }},
	{"gthinker_recoveries_total", "worker-loss recoveries executed", mergeCoordinator, func(c *Counters) *uint64 { return &c.Recoveries }},
	{"gthinker_retried_dials_total", "dial attempts beyond the first", mergeSum, func(c *Counters) *uint64 { return &c.RetriedDials }},
	{"gthinker_retried_ops_total", "idempotent op retries beyond the first", mergeSum, func(c *Counters) *uint64 { return &c.RetriedOps }},
	{"gthinker_dead_machines_total", "machines declared dead", mergeCoordinator, func(c *Counters) *uint64 { return &c.DeadMachines }},
	{"gthinker_trace_spans_total", "spans recorded into the trace rings", mergeSum, func(c *Counters) *uint64 { return &c.TraceSpans }},
	{"gthinker_trace_dropped_total", "spans the trace rings overwrote before a snapshot", mergeSum, func(c *Counters) *uint64 { return &c.TraceDropped }},
}

// merge folds another machine's (or the coordinator's) counters into c
// by each row's rule.
func (c *Counters) merge(o *Counters) {
	for i := range counterTable {
		d := &counterTable[i]
		dst, v := d.field(c), *d.field(o)
		if d.rule != mergeMax {
			*dst += v
		} else if v > *dst {
			*dst = v
		}
	}
}

// walk visits the counter table: one little-endian u64 per row.
func (c *Counters) walk(w *store.Walker) {
	for i := range counterTable {
		store.U64(w, counterTable[i].field(c))
	}
}

// samples appends c's rows in the debug server's sample model: the
// coordinator-owned rows when coord is set, every other row otherwise.
func (c *Counters) samples(dst []obs.Sample, lbl []obs.Label, coord bool) []obs.Sample {
	for i := range counterTable {
		d := &counterTable[i]
		if (d.rule == mergeCoordinator) == coord {
			dst = append(dst, obs.Sample{Name: d.name, Help: d.help, Labels: lbl, Value: float64(*d.field(c))})
		}
	}
	return dst
}

// Metrics reports one engine run: the counters summed over all
// machines and workers after the run completes, plus what is not a
// counter.
type Metrics struct {
	Wall time.Duration

	Counters

	// WorkerBusy is per-worker accumulated Compute time (dense worker
	// IDs across machines). The spread between workers is the paper's
	// load-balance evidence.
	WorkerBusy []time.Duration

	// Kernel names the bitset kernel variant the machine mined with
	// ("avx2" or "scalar"); a cluster merge reports "mixed" when
	// machines disagree, which is worth noticing in an A/B run.
	Kernel string
}

// TotalBusy sums per-worker compute time (the "aggregate mining time"
// reported next to wall time in EXPERIMENTS.md).
func (m *Metrics) TotalBusy() time.Duration {
	var t time.Duration
	for _, b := range m.WorkerBusy {
		t += b
	}
	return t
}

// BusyImbalance returns max/mean of per-worker busy time (1.0 =
// perfectly balanced).
func (m *Metrics) BusyImbalance() float64 {
	if len(m.WorkerBusy) == 0 {
		return 1
	}
	var max, sum time.Duration
	for _, b := range m.WorkerBusy {
		if b > max {
			max = b
		}
		sum += b
	}
	mean := sum / time.Duration(len(m.WorkerBusy))
	if mean == 0 {
		return 1
	}
	return float64(max) / float64(mean)
}

// MergeMachineMetrics folds per-machine metrics into one cluster
// aggregate: counters combine by their table rule, WorkerBusy
// concatenates in machine order (preserving dense worker IDs), and
// Kernel reads "mixed" when machines disagree. Wall is left for the
// caller.
func MergeMachineMetrics(per []*Metrics) *Metrics {
	out := &Metrics{}
	for _, m := range per {
		if m == nil {
			continue
		}
		out.Counters.merge(&m.Counters)
		out.WorkerBusy = append(out.WorkerBusy, m.WorkerBusy...)
		switch {
		case m.Kernel == "":
		case out.Kernel == "":
			out.Kernel = m.Kernel
		case out.Kernel != m.Kernel:
			out.Kernel = "mixed"
		}
	}
	return out
}

// String renders a compact summary. The trace clause appears only
// when tracing recorded anything, so untraced runs read as before.
func (m *Metrics) String() string {
	kernel := m.Kernel
	if kernel == "" {
		kernel = "unknown"
	}
	trace := ""
	if m.TraceSpans > 0 || m.TraceDropped > 0 {
		trace = fmt.Sprintf(" trace=%d(-%d)", m.TraceSpans, m.TraceDropped)
	}
	return fmt.Sprintf(
		"wall=%v tasks=%d(+%d sub) big=%d small=%d compute=%d steals=%d spill=%dB(peak %dB) refill=%dB/%d cache=%d/%d rpc=%d/%d wire=%dB/%dB retry=%d/%d recover=%d/%d busy=%v imbalance=%.2f%s kernel=%s",
		m.Wall.Round(time.Millisecond), m.TasksSpawned, m.SubtasksAdded, m.BigTasks,
		m.SmallTasks, m.ComputeCalls, m.TasksStolen, m.SpillBytesWritten, m.PeakSpillBytes,
		m.SpillBytesRead, m.RefillBatches,
		m.CacheHits, m.CacheHits+m.CacheMisses,
		m.BatchedFetches, m.RemoteFetches, m.WireBytesSent, m.WireBytesReceived,
		m.RetriedDials, m.RetriedOps, m.Recoveries, m.DeadMachines,
		m.TotalBusy().Round(time.Millisecond),
		m.BusyImbalance(), trace, kernel)
}

// maxWireWorkers bounds the WorkerBusy count accepted off the wire
// before the slice is allocated.
const maxWireWorkers = 1 << 20

// maxWireKernelName bounds the kernel-variant string accepted off the
// wire ("avx2"/"scalar"/"mixed" today; generous for future variants).
const maxWireKernelName = 64

// walk visits one machine's metrics as its opShutdown report carries
// them: wall time, the counter table, the per-worker
// busy times, the kernel name.
func (m *Metrics) walk(w *store.Walker) {
	store.U64(w, &m.Wall)
	m.Counters.walk(w)
	store.Slice(w, &m.WorkerBusy, maxWireWorkers, 8, func(b *time.Duration) { store.U64(w, b) })
	w.String(&m.Kernel, maxWireKernelName)
}
