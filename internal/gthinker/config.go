package gthinker

import (
	"fmt"
	"time"

	"gthinkerqc/internal/store"
)

// Config sizes the simulated cluster and its queues.
type Config struct {
	// Machines is the number of simulated machines (vertex-table
	// partitions). Default 1.
	Machines int
	// WorkersPerMachine is the number of mining threads per machine.
	// Default 1.
	WorkersPerMachine int
	// QueueCap bounds the in-memory length of each task queue; a full
	// queue spills a batch of tasks to disk. Default 1024.
	QueueCap int
	// BatchSize is C: the number of tasks per spill file, per refill,
	// and per steal directive. Default 32.
	BatchSize int
	// SpillDir is where spill files live; empty means os.MkdirTemp.
	SpillDir string
	// CacheCap bounds the remote-vertex cache entries per machine.
	// Default 1 << 16.
	CacheCap int
	// StatusInterval is the longest a busy machine holds a status
	// reply, and so the cadence of the coordinator's view of a working
	// cluster (one steal round per scan, the live metrics) and its
	// failure-detection heartbeat: a machine that stops answering is
	// noticed one interval later. It is not a termination delay — a
	// machine that goes quiescent or fails answers at once. Default
	// 1 ms.
	StatusInterval time.Duration
	// DisableGlobalQueue routes every task to local queues, reverting
	// the paper's reforge (ablation: original G-thinker behavior).
	DisableGlobalQueue bool
	// InProcessTCP selects how the machines of an in-process cluster
	// are reached: false (default) composes them over direct calls —
	// an ownership-checked loopback data plane that reads the shared
	// graph and hands each stolen GQS1 batch to the receiving host;
	// true puts every machine behind its own listener on 127.0.0.1 and
	// drives it with the same framed protocol a qcworker process
	// speaks, so every remote adjacency pull, stolen big-task batch,
	// status poll, and machine report crosses a real socket. Either way
	// a steal ships through the donor's Transport and is kept for
	// recovery, so the two compute the same results.
	InProcessTCP bool
	// FrameTimeout bounds each framed request/response exchange on
	// the control and data planes (one conn deadline per attempt), so
	// a hung peer surfaces as a timeout instead of a stuck run.
	// Default 30 s; negative disables the deadline.
	FrameTimeout time.Duration
	// DeadAfterPolls is the number of consecutive failed status polls
	// after which the coordinator declares a machine dead and recovers
	// its work onto the survivors. Transient drops are already absorbed
	// by the transport's retry-once on opStatus, so this threshold
	// distinguishes slow from dead. Default 5; negative is refused.
	DeadAfterPolls int
	// FaultSpec is a seeded fault-injection plan ("seed:directives",
	// see ParseFaultPlan) applied to this process's transports and
	// worker hosts. Empty means no injected faults. Test/chaos knob.
	FaultSpec string
	// Trace enables the event tracer: every machine records
	// spawn/compute/spill/refill/fetch/steal/recovery spans into
	// per-worker ring buffers (internal/obs), and the coordinator can
	// merge them into one cluster-wide timeline. Off by default; the
	// disabled fast path is a nil-pointer check per event. Carried in
	// the join so worker processes trace too.
	Trace bool
	// DebugAddr, when non-empty, starts a debug HTTP server on the
	// coordinator for the duration of the run: /metrics (Prometheus
	// text of the live per-machine view), /healthz, expvar, and
	// net/http/pprof. ":0" picks a free port; the bound address is
	// logged to stderr. Coordinator-side only — not part of the join
	// (worker processes mount their own via cmd/qcworker).
	DebugAddr string

	// statusHook, when non-nil, observes every successful status poll
	// the coordinator makes, from its poll loop. Tests use it to watch
	// the cluster mid-run.
	statusHook func(machine int, st MachineStatus)
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Machines == 0 {
		c.Machines = 1
	}
	if c.WorkersPerMachine == 0 {
		c.WorkersPerMachine = 1
	}
	if c.QueueCap == 0 {
		c.QueueCap = 1024
	}
	if c.BatchSize == 0 {
		c.BatchSize = 32
	}
	if c.CacheCap == 0 {
		c.CacheCap = 1 << 16
	}
	if c.StatusInterval == 0 {
		c.StatusInterval = time.Millisecond
	}
	if c.FrameTimeout == 0 {
		c.FrameTimeout = defaultFrameTimeout
	}
	if c.DeadAfterPolls == 0 {
		c.DeadAfterPolls = defaultDeadAfterPolls
	}
	return c
}

// defaultDeadAfterPolls: with failed polls paced one StatusInterval
// apart and the control plane's retry-once, five consecutive failures
// is decisively dead rather than momentarily slow.
const defaultDeadAfterPolls = 5

// TotalWorkers returns Machines × WorkersPerMachine with defaults
// applied: the cluster's thread count.
func (c Config) TotalWorkers() int {
	c = c.withDefaults()
	return c.Machines * c.WorkersPerMachine
}

// maxTotalWorkers bounds a cluster's threads, far above the paper's
// 16 × 32: a join's shape sizes per-worker state and trace track ids.
const maxTotalWorkers = 1 << 16

// validate rejects nonsensical configurations.
func (c Config) validate() error {
	if c.Machines < 1 || c.WorkersPerMachine < 1 {
		return fmt.Errorf("gthinker: need at least one machine and one worker, got %d×%d",
			c.Machines, c.WorkersPerMachine)
	}
	if c.Machines > maxTotalWorkers/c.WorkersPerMachine { // M×W > max, without overflow
		return fmt.Errorf("gthinker: %d×%d workers exceeds the limit of %d",
			c.Machines, c.WorkersPerMachine, maxTotalWorkers)
	}
	if c.QueueCap < 1 || c.BatchSize < 1 {
		return fmt.Errorf("gthinker: QueueCap (%d) and BatchSize (%d) must be positive",
			c.QueueCap, c.BatchSize)
	}
	if c.BatchSize > c.QueueCap {
		return fmt.Errorf("gthinker: BatchSize %d exceeds QueueCap %d", c.BatchSize, c.QueueCap)
	}
	if c.DeadAfterPolls < 0 {
		return fmt.Errorf("gthinker: DeadAfterPolls %d must not be negative", c.DeadAfterPolls)
	}
	if c.FrameTimeout > 0 && c.StatusInterval >= c.FrameTimeout {
		return fmt.Errorf("gthinker: StatusInterval %v must be below FrameTimeout %v (a busy machine holds its status reply that long)",
			c.StatusInterval, c.FrameTimeout)
	}
	if _, err := ParseFaultPlan(c.FaultSpec); err != nil {
		return err
	}
	return nil
}

// walk is the join's engine config: all of Config but SpillDir (each
// host's own) and the coordinator's DebugAddr, InProcessTCP and hook.
func (c *Config) walk(w *store.Walker) {
	store.U32(w, &c.Machines)
	store.U32(w, &c.WorkersPerMachine)
	store.U32(w, &c.QueueCap)
	store.U32(w, &c.BatchSize)
	store.U32(w, &c.CacheCap)
	store.U64(w, &c.StatusInterval)
	w.Flags(4, &c.DisableGlobalQueue, &c.Trace)
	store.U64(w, &c.FrameTimeout)
	store.U64(w, &c.DeadAfterPolls)
	w.String(&c.FaultSpec, maxFramePayload)
}
