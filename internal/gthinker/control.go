package gthinker

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"gthinkerqc/internal/obs"
	"gthinkerqc/internal/store"
)

// The control plane extends the PR 4 frame protocol with the ops a
// coordinator needs to run a cluster of isolated machine runtimes —
// termination detection, steal directives, and metrics flushes cross
// the same length-prefixed frames as adjacency batches, so one process
// per machine (cmd/qcworker) needs nothing an InProcessTCP cluster
// does not also exercise. See the op table in tcp.go.

// controlProtoVersion is the handshake version; a coordinator and
// worker disagreeing on it refuse to pair. Since version 4 the cluster
// is multi-job: a JobID prefixes the opRun, opStatus, opStealDo,
// opShutdown, opMetrics, opResults, and opTrace payloads (a stale
// worker and a coordinator disagreeing about which job is running fail
// loudly instead of mixing two jobs' state), and opRun carries a
// per-job spec so one joined cluster can run many jobs with different
// parameters without re-handshaking. Version 5 ships the whole counter
// table (metrics.go) in the status reply and the metrics payload.
const controlProtoVersion = 5

// Control-plane ops (continuing the tcp.go data-plane numbering).
const (
	opJoin     byte = 0x04
	opStart    byte = 0x05
	opStatus   byte = 0x06
	opStealDo  byte = 0x07
	opMetrics  byte = 0x08
	opResults  byte = 0x09
	opShutdown byte = 0x0A
	opExit     byte = 0x0B
	opRun      byte = 0x0C
	opRecover  byte = 0x0D
	opTrace    byte = 0x0E
)

// maxCtlAddr bounds one address string read off the wire.
const maxCtlAddr = 1 << 12

// joinRequest is the coordinator's opJoin payload: the identity the
// worker must agree with before it serves (protocol version, its own
// machine id, the cluster size, the graph fingerprint) plus the
// opaque app-level job spec.
type joinRequest struct {
	MachineID int
	Machines  int
	NumVerts  int
	NumEdges  uint64
	Spec      []byte
}

func appendJoinRequest(dst []byte, r joinRequest) []byte {
	dst = store.AppendU32(dst, controlProtoVersion)
	dst = store.AppendU32(dst, uint32(r.MachineID))
	dst = store.AppendU32(dst, uint32(r.Machines))
	dst = store.AppendU32(dst, uint32(r.NumVerts))
	dst = store.AppendU64(dst, r.NumEdges)
	dst = store.AppendU32(dst, uint32(len(r.Spec)))
	return append(dst, r.Spec...)
}

func decodeJoinRequest(data []byte) (joinRequest, error) {
	c := store.NewCursor(data)
	if v := c.U32(); c.Err() == nil && v != controlProtoVersion {
		return joinRequest{}, fmt.Errorf("gthinker: control protocol version %d, want %d", v, controlProtoVersion)
	}
	r := joinRequest{
		MachineID: int(c.U32()),
		Machines:  int(c.U32()),
		NumVerts:  int(c.U32()),
		NumEdges:  c.U64(),
	}
	r.Spec = c.Bytes(int(c.U32()))
	if err := c.Err(); err != nil {
		return joinRequest{}, fmt.Errorf("gthinker: malformed join request: %w", err)
	}
	if c.Remaining() != 0 {
		return joinRequest{}, fmt.Errorf("gthinker: %d trailing bytes in join request", c.Remaining())
	}
	return r, nil
}

// appendStatus encodes a MachineStatus reply.
func appendStatus(dst []byte, st MachineStatus) []byte {
	var flags byte
	if st.AllSpawned {
		flags |= 1
	}
	dst = append(dst, flags)
	dst = store.AppendU64(dst, uint64(st.Live))
	dst = store.AppendU64(dst, uint64(st.BigPending))
	dst = store.AppendU64(dst, st.SentOut)
	dst = store.AppendU64(dst, st.RecvIn)
	dst = store.AppendU64(dst, uint64(st.Spawned))
	dst = appendCounters(dst, &st.Counters)
	return store.AppendString(dst, st.Failure)
}

// maxFailureLen bounds the failure string accepted off the wire.
const maxFailureLen = 1 << 16

func decodeStatus(data []byte) (MachineStatus, error) {
	c := store.NewCursor(data)
	flags := c.Bytes(1)
	st := MachineStatus{}
	if len(flags) == 1 {
		st.AllSpawned = flags[0]&1 != 0
	}
	st.Live = int64(c.U64())
	st.BigPending = int64(c.U64())
	st.SentOut = c.U64()
	st.RecvIn = c.U64()
	st.Spawned = int64(c.U64())
	st.Counters = decodeCounters(c)
	st.Failure = c.String(maxFailureLen)
	if err := c.Err(); err != nil {
		return MachineStatus{}, fmt.Errorf("gthinker: malformed status reply: %w", err)
	}
	if c.Remaining() != 0 {
		return MachineStatus{}, fmt.Errorf("gthinker: %d trailing bytes in status reply", c.Remaining())
	}
	return st, nil
}

// appendAddrTable encodes the opStart payload: every machine's vertex
// and task server addresses, in machine order.
func appendAddrTable(dst []byte, vaddrs, taddrs []string) []byte {
	dst = store.AppendU32(dst, uint32(len(vaddrs)))
	for i := range vaddrs {
		dst = store.AppendString(dst, vaddrs[i])
		dst = store.AppendString(dst, taddrs[i])
	}
	return dst
}

func decodeAddrTable(data []byte) (vaddrs, taddrs []string, err error) {
	c := store.NewCursor(data)
	n := int(c.U32())
	if e := c.Err(); e != nil {
		return nil, nil, fmt.Errorf("gthinker: malformed start payload: %w", e)
	}
	if n < 1 || n > c.Remaining()/8+1 {
		return nil, nil, fmt.Errorf("gthinker: start payload claims %d machines in %d bytes", n, c.Remaining())
	}
	vaddrs = make([]string, n)
	taddrs = make([]string, n)
	for i := 0; i < n; i++ {
		vaddrs[i] = c.String(maxCtlAddr)
		taddrs[i] = c.String(maxCtlAddr)
	}
	if e := c.Err(); e != nil {
		return nil, nil, fmt.Errorf("gthinker: malformed start payload: %w", e)
	}
	if c.Remaining() != 0 {
		return nil, nil, fmt.Errorf("gthinker: %d trailing bytes in start payload", c.Remaining())
	}
	return vaddrs, taddrs, nil
}

// controlHandler is what a ControlServer dispatches into — implemented
// by WorkerHost. Ops that act on a specific job carry its id so the
// handler can reject frames from a coordinator it disagrees with.
type controlHandler interface {
	handleJoin(r joinRequest) (vaddr, taddr string, err error)
	handleStart(vaddrs, taddrs []string) error
	handleRun(job uint64, spec []byte) error
	handleStatus(job uint64) (MachineStatus, error)
	handleSteal(job uint64, recv, want int) (int, error)
	handleRecover(d RecoverDirective) error
	handleMetrics(job uint64) (*Metrics, error)
	handleTrace(job uint64) (*obs.Trace, error)
	handleResults(job uint64) ([]byte, error)
	handleShutdown(job uint64) error
	handleExit()
}

// splitJobID strips the u64 job-id prefix that version 4 adds to the
// job-scoped control ops.
func splitJobID(payload []byte) (uint64, []byte, error) {
	if len(payload) < 8 {
		return 0, nil, fmt.Errorf("gthinker: control frame lacks a job id (%d bytes)", len(payload))
	}
	c := store.NewCursor(payload[:8])
	return c.U64(), payload[8:], nil
}

// maxAdoptList bounds the opRecover partition list read off the wire
// (a machine can only ever adopt every other machine's partition once,
// so any sane list is tiny; this is a decode-time allocation bound).
const maxAdoptList = 1 << 16

// appendRecover encodes a RecoverDirective (opRecover payload).
func appendRecover(dst []byte, d RecoverDirective) []byte {
	dst = store.AppendU32(dst, uint32(d.Dead))
	dst = store.AppendU32(dst, uint32(d.Fallback))
	dst = store.AppendU32(dst, uint32(d.Adopter))
	dst = store.AppendU32(dst, uint32(len(d.Adopt)))
	for _, id := range d.Adopt {
		dst = store.AppendU32(dst, uint32(id))
	}
	return dst
}

func decodeRecover(data []byte) (RecoverDirective, error) {
	c := store.NewCursor(data)
	d := RecoverDirective{
		Dead:     int(c.U32()),
		Fallback: int(c.U32()),
		Adopter:  int(c.U32()),
	}
	n := int(c.U32())
	if c.Err() == nil && (n < 0 || n > maxAdoptList || n > c.Remaining()/4) {
		return RecoverDirective{}, fmt.Errorf("gthinker: recover directive claims %d partitions in %d bytes", n, c.Remaining())
	}
	d.Adopt = make([]int, n)
	for i := range d.Adopt {
		d.Adopt[i] = int(c.U32())
	}
	if err := c.Err(); err != nil {
		return RecoverDirective{}, fmt.Errorf("gthinker: malformed recover directive: %w", err)
	}
	if c.Remaining() != 0 {
		return RecoverDirective{}, fmt.Errorf("gthinker: %d trailing bytes in recover directive", c.Remaining())
	}
	return d, nil
}

// controlServer answers control-plane ops for one machine.
type controlServer struct {
	l listener
	h controlHandler
}

func serveControl(addr string, h controlHandler) (*controlServer, error) {
	s := &controlServer{h: h}
	if err := s.l.serve(addr, s.handle); err != nil {
		return nil, fmt.Errorf("gthinker: control server: %w", err)
	}
	return s, nil
}

func (s *controlServer) addr() string { return s.l.addr() }
func (s *controlServer) close() error { return s.l.close() }

func (s *controlServer) handle(conn net.Conn) {
	serveFrames(conn, maxFramePayload, func(op byte, payload []byte) ([]byte, error) {
		switch op {
		case opJoin:
			r, err := decodeJoinRequest(payload)
			if err != nil {
				return nil, err
			}
			vaddr, taddr, err := s.h.handleJoin(r)
			if err != nil {
				return nil, err
			}
			out := store.AppendString(nil, vaddr)
			return store.AppendString(out, taddr), nil
		case opStart:
			vaddrs, taddrs, err := decodeAddrTable(payload)
			if err != nil {
				return nil, err
			}
			return nil, s.h.handleStart(vaddrs, taddrs)
		case opStatus:
			job, rest, err := splitJobID(payload)
			if err != nil || len(rest) != 0 {
				return nil, fmt.Errorf("gthinker: malformed status request")
			}
			st, err := s.h.handleStatus(job)
			if err != nil {
				return nil, err
			}
			return appendStatus(nil, st), nil
		case opStealDo:
			job, rest, err := splitJobID(payload)
			if err != nil {
				return nil, err
			}
			c := store.NewCursor(rest)
			recv := int(c.U32())
			want := int(c.U32())
			if err := c.Err(); err != nil || c.Remaining() != 0 {
				return nil, fmt.Errorf("gthinker: malformed steal directive")
			}
			moved, err := s.h.handleSteal(job, recv, want)
			if err != nil {
				return nil, err
			}
			return store.AppendU32(nil, uint32(moved)), nil
		case opRecover:
			d, err := decodeRecover(payload)
			if err != nil {
				return nil, err
			}
			return nil, s.h.handleRecover(d)
		case opMetrics:
			job, rest, err := splitJobID(payload)
			if err != nil || len(rest) != 0 {
				return nil, fmt.Errorf("gthinker: malformed metrics request")
			}
			met, err := s.h.handleMetrics(job)
			if err != nil {
				return nil, err
			}
			return appendMetrics(nil, met), nil
		case opTrace:
			job, rest, err := splitJobID(payload)
			if err != nil || len(rest) != 0 {
				return nil, fmt.Errorf("gthinker: malformed trace request")
			}
			tr, err := s.h.handleTrace(job)
			if err != nil {
				return nil, err
			}
			return obs.AppendTrace(nil, tr), nil
		case opResults:
			job, rest, err := splitJobID(payload)
			if err != nil || len(rest) != 0 {
				return nil, fmt.Errorf("gthinker: malformed results request")
			}
			return s.h.handleResults(job)
		case opRun:
			job, rest, err := splitJobID(payload)
			if err != nil {
				return nil, err
			}
			c := store.NewCursor(rest)
			spec := c.Bytes(int(c.U32()))
			if err := c.Err(); err != nil || c.Remaining() != 0 {
				return nil, fmt.Errorf("gthinker: malformed run request")
			}
			return nil, s.h.handleRun(job, spec)
		case opShutdown:
			job, rest, err := splitJobID(payload)
			if err != nil || len(rest) != 0 {
				return nil, fmt.Errorf("gthinker: malformed shutdown request")
			}
			return nil, s.h.handleShutdown(job)
		case opExit:
			return nil, nil // acted on once the ack is flushed, below
		default:
			return nil, fmt.Errorf("gthinker: control server: unknown op 0x%02x", op)
		}
	}, func(op byte) {
		if op == opExit {
			s.h.handleExit()
		}
	})
}

// ClusterClient is the ControlPlane over framed TCP: one pooled
// connection per machine's control server. It drives both an
// InProcessTCP cluster and real qcworker processes — the coordinator
// cannot tell the difference, which is the point.
//
// Methods are safe for one coordinator goroutine per machine; the
// shutdown→metrics→results ordering guarantee relies on each machine's
// requests sharing its pooled connection.
type ClusterClient struct {
	pool         *connPool
	sent         atomic.Uint64
	recvd        atomic.Uint64
	retriedDials atomic.Uint64
	retriedOps   atomic.Uint64

	// job is the id the client stamps on every job-scoped frame
	// (status polls, steal directives, shutdown, metrics/trace/results
	// collection). Run advances it.
	job atomic.Uint64

	mu     sync.Mutex
	closed bool
}

// Machines returns the cluster size.
func (c *ClusterClient) Machines() int { return len(c.pool.addrs) }

// joinCluster dials the machines' control servers and runs the
// handshake up to the point where jobs can run: every machine joins
// with the shared identity (cluster size, graph fingerprint, spec) —
// checking it, building its runtime, and reporting its data-plane
// listen addresses — and then receives the full peer address table to
// wire its TCPTransport over.
func joinCluster(cfg Config, ctlAddrs []string, numVerts int, numEdges uint64, spec []byte) (*ClusterClient, error) {
	if cfg.Machines != len(ctlAddrs) {
		return nil, fmt.Errorf("gthinker: joining %d machines with %d control addresses", cfg.Machines, len(ctlAddrs))
	}
	fault, err := ParseFaultPlan(cfg.FaultSpec)
	if err != nil {
		return nil, err
	}
	// Connections are established lazily, with timed dials and a
	// retry-once on the idempotent opStatus poll; zero DialTimeout /
	// FrameTimeout keep the defaults, a negative FrameTimeout disables
	// the deadline.
	c := &ClusterClient{pool: newConnPool(ctlAddrs)}
	c.pool.opAttempts = ctlOpAttempts
	c.pool.retriedDials = &c.retriedDials
	c.pool.retriedOps = &c.retriedOps
	c.pool.configure(cfg.DialTimeout, cfg.FrameTimeout, fault)
	fail := func(err error) (*ClusterClient, error) {
		c.Close()
		return nil, err
	}
	vaddrs := make([]string, cfg.Machines)
	taddrs := make([]string, cfg.Machines)
	for m := range vaddrs {
		resp, err := c.pool.roundTrip(m, opJoin, appendJoinRequest(nil, joinRequest{
			MachineID: m, Machines: cfg.Machines,
			NumVerts: numVerts, NumEdges: numEdges, Spec: spec,
		}), maxFramePayload, &c.sent, &c.recvd)
		if err != nil {
			return fail(fmt.Errorf("gthinker: join machine %d: %w", m, err))
		}
		cur := store.NewCursor(resp)
		vaddrs[m] = cur.String(maxCtlAddr)
		taddrs[m] = cur.String(maxCtlAddr)
		if err := cur.Err(); err != nil {
			return fail(fmt.Errorf("gthinker: malformed join reply from machine %d: %w", m, err))
		}
	}
	table := appendAddrTable(nil, vaddrs, taddrs)
	for m := range vaddrs {
		if _, err := c.pool.roundTrip(m, opStart, table, maxFramePayload, &c.sent, &c.recvd); err != nil {
			return fail(fmt.Errorf("gthinker: start machine %d: %w", m, err))
		}
	}
	return c, nil
}

// jobHeader starts a job-scoped request payload with the current job
// id.
func (c *ClusterClient) jobHeader() []byte {
	return store.AppendU64(nil, c.job.Load())
}

// Run starts mining job `job` on machine m: the spec is delivered so
// the worker rebuilds its application with this job's parameters (γ,
// min-size, options) before starting. All subsequent job-scoped frames
// are stamped with this id.
func (c *ClusterClient) Run(m int, job uint64, spec []byte) error {
	c.job.Store(job)
	payload := store.AppendU64(nil, job)
	payload = store.AppendU32(payload, uint32(len(spec)))
	payload = append(payload, spec...)
	if _, err := c.pool.roundTrip(m, opRun, payload, maxFramePayload, &c.sent, &c.recvd); err != nil {
		return fmt.Errorf("gthinker: run machine %d: %w", m, err)
	}
	return nil
}

// Status polls machine m's liveness report.
func (c *ClusterClient) Status(m int) (MachineStatus, error) {
	resp, err := c.pool.roundTrip(m, opStatus, c.jobHeader(), maxFramePayload, &c.sent, &c.recvd)
	if err != nil {
		return MachineStatus{}, err
	}
	return decodeStatus(resp)
}

// Steal directs machine donor to ship up to want big tasks to recv.
func (c *ClusterClient) Steal(donor, recv, want int) (int, error) {
	req := c.jobHeader()
	req = store.AppendU32(req, uint32(recv))
	req = store.AppendU32(req, uint32(want))
	resp, err := c.pool.roundTrip(donor, opStealDo, req, maxFramePayload, &c.sent, &c.recvd)
	if err != nil {
		return 0, err
	}
	cur := store.NewCursor(resp)
	moved := int(cur.U32())
	if err := cur.Err(); err != nil {
		return 0, fmt.Errorf("gthinker: malformed steal reply: %w", err)
	}
	return moved, nil
}

// Recover delivers a dead-machine directive to surviving machine m.
func (c *ClusterClient) Recover(m int, d RecoverDirective) error {
	_, err := c.pool.roundTrip(m, opRecover, appendRecover(nil, d), maxFramePayload, &c.sent, &c.recvd)
	return err
}

// Shutdown stops machine m's workers and joins them.
func (c *ClusterClient) Shutdown(m int) error {
	_, err := c.pool.roundTrip(m, opShutdown, c.jobHeader(), maxFramePayload, &c.sent, &c.recvd)
	return err
}

// CollectMetrics flushes machine m's metrics over the wire. Only valid
// after Shutdown(m) (same pooled connection, so the worker's join of
// its mining threads is ordered before this read).
func (c *ClusterClient) CollectMetrics(m int) (*Metrics, error) {
	resp, err := c.pool.roundTrip(m, opMetrics, c.jobHeader(), maxFramePayload, &c.sent, &c.recvd)
	if err != nil {
		return nil, err
	}
	return decodeMetrics(resp)
}

// CollectTrace fetches machine m's retained trace spans (empty when
// tracing is disabled there). Only valid after Shutdown(m). The reply
// is accepted up to the absolute frame ceiling, like CollectResults: a
// full set of per-worker rings legitimately exceeds the request
// budget.
func (c *ClusterClient) CollectTrace(m int) (*obs.Trace, error) {
	resp, err := c.pool.roundTrip(m, opTrace, c.jobHeader(), maxWireFrame, &c.sent, &c.recvd)
	if err != nil {
		return nil, err
	}
	return obs.DecodeTrace(resp)
}

// CollectResults fetches machine m's app-level result bytes (opaque to
// the engine; the app's session decodes and merges them). Only valid
// after Shutdown(m). Unlike request traffic, the reply is accepted up
// to the absolute frame ceiling: a worker's whole result set ships as
// one frame, and a big mining run legitimately exceeds the 64 MiB
// request budget (writeFrame allows the same ceiling on the sender).
func (c *ClusterClient) CollectResults(m int) ([]byte, error) {
	return c.pool.roundTrip(m, opResults, c.jobHeader(), maxWireFrame, &c.sent, &c.recvd)
}

// Exit tells machine m's host process to terminate after replying.
func (c *ClusterClient) Exit(m int) error {
	_, err := c.pool.roundTrip(m, opExit, nil, maxFramePayload, &c.sent, &c.recvd)
	return err
}

// WireBytes returns control-plane traffic totals (frame headers
// included).
func (c *ClusterClient) WireBytes() (sent, received uint64) {
	return c.sent.Load(), c.recvd.Load()
}

// RetriedDials returns control-plane dial attempts beyond the first.
func (c *ClusterClient) RetriedDials() uint64 { return c.retriedDials.Load() }

// RetriedOps returns control-plane idempotent-op retries.
func (c *ClusterClient) RetriedOps() uint64 { return c.retriedOps.Load() }

// Close drops the pooled control connections.
func (c *ClusterClient) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	return c.pool.close()
}
