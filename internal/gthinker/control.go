package gthinker

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"gthinkerqc/internal/obs"
	"gthinkerqc/internal/store"
)

// The control plane extends the frame protocol of tcp.go with the ops
// a coordinator needs to run a cluster of isolated machine runtimes —
// termination detection, steal directives, and each job's report cross
// the same listener, in the same length-prefixed frames, as adjacency
// batches, so one process per machine (cmd/qcworker) needs nothing an
// InProcessTCP cluster does not also exercise. See the op table in
// tcp.go.

// controlProtoVersion is the handshake version; a coordinator and
// worker disagreeing on it refuse to pair. Since version 4 the cluster
// is multi-job: a JobID prefixes every job-scoped payload (a stale
// worker and a coordinator disagreeing about which job is running fail
// loudly instead of mixing two jobs' state), and opRun carries a
// per-job spec so one joined cluster can run many jobs with different
// parameters without re-handshaking. Version 5 ships the whole counter
// table (metrics.go) in the status reply and the metrics payload;
// version 6 drops the table's off-cycle steal row. Version 7 gives
// each machine one address: opJoin carries the peer table and gets an
// empty reply, and op 0x05 is retired. Version 8 drops the wire-steal
// row: every steal crosses the donor's Transport, so it equalled the
// stolen-task row. Version 9 ends a job in one exchange: the
// opShutdown reply is the machine's whole report (MachineReport), and
// ops 0x08, 0x09 and 0x0E are retired. Version 10 drops the kernel
// name from the metrics walk: there is one bitset kernel. Version 11's
// join carries the engine Config, not the cluster size and a job spec.
const controlProtoVersion = 11

// Control-plane ops (continuing the tcp.go data-plane numbering; 0x05,
// 0x08, 0x09 and 0x0E are retired).
const (
	opJoin     byte = 0x04
	opStatus   byte = 0x06
	opStealDo  byte = 0x07
	opShutdown byte = 0x0A
	opExit     byte = 0x0B
	opRun      byte = 0x0C
	opRecover  byte = 0x0D
)

// maxCtlAddr bounds one address string read off the wire.
const maxCtlAddr = 1 << 12

// maxFailureLen bounds the failure string accepted off the wire.
const maxFailureLen = 1 << 16

// maxAdoptList bounds the opRecover partition list read off the wire
// (a machine can only ever adopt every other machine's partition once,
// so any sane list is tiny; this is a decode-time allocation bound).
const maxAdoptList = 1 << 16

// Each control payload below is one walk (store.Walker) that both the
// sender's encode and the receiver's decode run; tcp.go's op table
// names the walk of every op.

// ctlVersion is controlProtoVersion as the u32 a join request opens
// with.
var ctlVersion = string(store.AppendU32(nil, controlProtoVersion))

// joinRequest is the coordinator's opJoin payload: the identity the
// worker must agree with before it serves (protocol version, its own
// machine id, the graph fingerprint), the engine configuration every
// machine runs under (its Machines is the cluster size), and every
// machine's address in machine order.
type joinRequest struct {
	MachineID int
	Config    Config
	NumVerts  int
	NumEdges  uint64
	Peers     []string
}

func (r *joinRequest) walk(w *store.Walker) {
	w.Const(ctlVersion, "control protocol version")
	store.U32(w, &r.MachineID)
	r.Config.walk(w)
	store.U32(w, &r.NumVerts)
	store.U64(w, &r.NumEdges)
	store.Slice(w, &r.Peers, maxFramePayload/4, 4, func(a *string) { w.String(a, maxCtlAddr) })
}

// walk visits the opStatus reply.
func (st *MachineStatus) walk(w *store.Walker) {
	w.Flags(1, &st.AllSpawned)
	store.U64(w, &st.Live)
	store.U64(w, &st.BigPending)
	store.U64(w, &st.SentOut)
	store.U64(w, &st.RecvIn)
	store.U64(w, &st.Spawned)
	st.Counters.walk(w)
	w.String(&st.Failure, maxFailureLen)
}

// jobRequest is a job-scoped request: the job id every such op opens
// with, then opRun's spec or opStealDo's receiver and count.
type jobRequest struct {
	job        uint64
	spec       []byte
	recv, want int
}

func (r *jobRequest) walk(w *store.Walker) { store.U64(w, &r.job) }

func (r *jobRequest) walkRun(w *store.Walker) {
	r.walk(w)
	w.Bytes(&r.spec, maxFramePayload)
}

func (r *jobRequest) walkSteal(w *store.Walker) {
	r.walk(w)
	store.U32(w, &r.recv)
	store.U32(w, &r.want)
}

// stealReply walks the opStealDo reply: the number of tasks moved.
func stealReply(moved *int) func(*store.Walker) {
	return func(w *store.Walker) { store.U32(w, moved) }
}

// MachineReport is what one machine hands back when its job ends: the
// opShutdown reply.
type MachineReport struct {
	// Failure is the first failure the machine's job recorded; empty
	// when it recorded none. A failed machine still reports its work.
	Failure string
	// Metrics holds the machine's local counters and joined workers'
	// busy times.
	Metrics *Metrics
	// Trace holds the machine's spans; empty unless the job traces.
	Trace *obs.Trace
	// Results is the application's opaque result frame.
	Results []byte
}

// walk visits the opShutdown reply: the failure, the metrics, the
// spans as length-prefixed OTR1 bytes, then the result frame. The
// spans are the caller's: encoding carries them for r.Trace, decoding
// leaves them to obs.DecodeTrace.
func (r *MachineReport) walk(w *store.Walker, spans *[]byte) {
	w.String(&r.Failure, maxFailureLen)
	r.Metrics.walk(w)
	w.Bytes(spans, maxWireFrame)
	w.Bytes(&r.Results, maxWireFrame)
}

func (r *MachineReport) encode() []byte {
	spans := obs.AppendTrace(nil, r.Trace)
	return store.Encode(nil, func(w *store.Walker) { r.walk(w, &spans) })
}

func decodeReport(data []byte) (*MachineReport, error) {
	r := &MachineReport{Metrics: &Metrics{}}
	var spans []byte
	if err := store.Decode(data, "shutdown reply", func(w *store.Walker) { r.walk(w, &spans) }); err != nil {
		return nil, err
	}
	tr, err := obs.DecodeTrace(spans)
	if err != nil {
		return nil, err
	}
	r.Trace = tr
	return r, nil
}

// walk visits the opRecover payload.
func (d *RecoverDirective) walk(w *store.Walker) {
	store.U32(w, &d.Dead)
	store.U32(w, &d.Fallback)
	store.U32(w, &d.Adopter)
	store.Slice(w, &d.Adopt, maxAdoptList, 4, func(id *int) { store.U32(w, id) })
}

// controlHandler is what a controlServer dispatches into — implemented
// by WorkerHost. Ops that act on a specific job carry its id so the
// handler can reject frames from a coordinator it disagrees with. The
// two data ops hand over their raw payloads: they have no walk.
type controlHandler interface {
	handleJoin(r joinRequest) error
	handleAdjBatch(payload []byte) ([]byte, error)
	handleTasks(payload []byte) error
	handleRun(job uint64, spec []byte) error
	handleStatus(job uint64) (MachineStatus, error)
	handleSteal(job uint64, recv, want int) (int, error)
	handleRecover(d RecoverDirective) error
	handleShutdown(job uint64) (*MachineReport, error)
	handleExit()
}

// controlServer answers every op for one machine on its one listener:
// the control plane, adjacency batches and stolen task batches.
type controlServer struct {
	l      listener
	h      controlHandler
	maxAdj int // opAdjBatch request cap: adjRequestLimit of the served graph
}

// serveControl listens on addr for a machine serving a graph of
// numVertices vertices.
func serveControl(addr string, h controlHandler, numVertices int) (*controlServer, error) {
	s := &controlServer{h: h, maxAdj: adjRequestLimit(numVertices)}
	if err := s.l.serve(addr, s.handle); err != nil {
		return nil, fmt.Errorf("gthinker: worker host: %w", err)
	}
	return s, nil
}

func (s *controlServer) addr() string { return s.l.addr() }
func (s *controlServer) close() error { return s.l.close() }

func (s *controlServer) handle(conn net.Conn) {
	serveFrames(conn, s.maxRequest, s.dispatch, func(op byte) {
		if op == opExit {
			s.h.handleExit()
		}
	})
}

// maxRequest bounds a request frame by its op: an adjacency batch to
// what a VertexServer of the same graph accepts, the rest to
// maxFramePayload.
func (s *controlServer) maxRequest(op byte) int {
	if op == opAdjBatch {
		return s.maxAdj
	}
	return maxFramePayload
}

// dispatch answers one request: a data op straight from its payload,
// a control op after decoding it through the op's walk.
func (s *controlServer) dispatch(op byte, payload []byte) ([]byte, error) {
	switch op {
	case opAdjBatch:
		return s.h.handleAdjBatch(payload)
	case opTaskSteal:
		return nil, s.h.handleTasks(payload)
	}
	var (
		join joinRequest
		rec  RecoverDirective
		req  jobRequest
	)
	walk, what := req.walk, "job request"
	switch op {
	case opJoin:
		walk, what = join.walk, "join request"
	case opRun:
		walk, what = req.walkRun, "run request"
	case opStealDo:
		walk, what = req.walkSteal, "steal directive"
	case opRecover:
		walk, what = rec.walk, "recover directive"
	case opExit:
		walk, what = func(*store.Walker) {}, "exit request"
	case opStatus, opShutdown:
	default:
		return nil, fmt.Errorf("gthinker: worker host: unknown op 0x%02x", op)
	}
	if err := store.Decode(payload, what, walk); err != nil {
		return nil, err
	}
	switch op {
	case opJoin:
		return nil, s.h.handleJoin(join)
	case opRun:
		return nil, s.h.handleRun(req.job, req.spec)
	case opStatus:
		st, err := s.h.handleStatus(req.job)
		if err != nil {
			return nil, err
		}
		return store.Encode(nil, st.walk), nil
	case opStealDo:
		moved, err := s.h.handleSteal(req.job, req.recv, req.want)
		if err != nil {
			return nil, err
		}
		return store.Encode(nil, stealReply(&moved)), nil
	case opRecover:
		return nil, s.h.handleRecover(rec)
	case opShutdown:
		rep, err := s.h.handleShutdown(req.job)
		if err != nil {
			return nil, err
		}
		return rep.encode(), nil
	}
	return nil, nil // opExit: acted on once the ack is flushed, above
}

// ClusterClient is the ControlPlane over framed TCP: one pooled
// connection per machine's host. It drives both an InProcessTCP
// cluster and real qcworker processes — the coordinator cannot tell
// the difference, which is the point.
//
// Methods are safe for one coordinator goroutine per machine.
type ClusterClient struct {
	pool         *connPool
	sent         atomic.Uint64
	recvd        atomic.Uint64
	retriedDials atomic.Uint64
	retriedOps   atomic.Uint64

	// job is the id the client stamps on every job-scoped frame
	// (status polls, steal directives, shutdown). Run advances it.
	job atomic.Uint64

	mu     sync.Mutex
	closed bool
}

// Machines returns the cluster size.
func (c *ClusterClient) Machines() int { return len(c.pool.addrs) }

// joinCluster dials the machines' hosts and runs the handshake up to
// the point where jobs can run: every machine joins with the shared
// identity (graph fingerprint), the engine config cfg and the peer
// table — the addresses dialed here — checking the identity, building
// its runtime under cfg, and wiring its TCPTransport over the table.
func joinCluster(cfg Config, addrs []string, numVerts int, numEdges uint64) (*ClusterClient, error) {
	if cfg.Machines != len(addrs) {
		return nil, fmt.Errorf("gthinker: joining %d machines with %d addresses", cfg.Machines, len(addrs))
	}
	fault, err := ParseFaultPlan(cfg.FaultSpec)
	if err != nil {
		return nil, err
	}
	// Connections are established lazily, with timed dials and a
	// retry-once on the idempotent opStatus poll; a zero FrameTimeout
	// keeps the default, a negative one disables the deadline.
	c := &ClusterClient{pool: newConnPool(addrs)}
	c.pool.opAttempts = ctlOpAttempts
	c.pool.retriedDials = &c.retriedDials
	c.pool.retriedOps = &c.retriedOps
	c.pool.configure(cfg.FrameTimeout, fault)
	fail := func(err error) (*ClusterClient, error) {
		c.Close()
		return nil, err
	}
	for m := range addrs {
		req := joinRequest{MachineID: m, Config: cfg, NumVerts: numVerts, NumEdges: numEdges, Peers: addrs}
		if _, err := c.call(m, opJoin, req.walk, maxFramePayload); err != nil {
			return fail(fmt.Errorf("gthinker: join machine %d: %w", m, err))
		}
	}
	return c, nil
}

// call sends op to machine m with the payload walk encodes and returns
// the reply.
func (c *ClusterClient) call(m int, op byte, walk func(*store.Walker), maxResp int) ([]byte, error) {
	return c.pool.roundTrip(m, op, store.Encode(nil, walk), maxResp, &c.sent, &c.recvd)
}

// current is the request header of the job Run last started.
func (c *ClusterClient) current() *jobRequest { return &jobRequest{job: c.job.Load()} }

// Run starts mining job `job` on machine m: the spec is delivered so
// the worker rebuilds its application with this job's parameters (γ,
// min-size, options) before starting. All subsequent job-scoped frames
// are stamped with this id.
func (c *ClusterClient) Run(m int, job uint64, spec []byte) error {
	c.job.Store(job)
	req := jobRequest{job: job, spec: spec}
	if _, err := c.call(m, opRun, req.walkRun, maxFramePayload); err != nil {
		return fmt.Errorf("gthinker: run machine %d: %w", m, err)
	}
	return nil
}

// Status polls machine m's liveness report.
func (c *ClusterClient) Status(m int) (MachineStatus, error) {
	var st MachineStatus
	resp, err := c.call(m, opStatus, c.current().walk, maxFramePayload)
	if err == nil {
		err = store.Decode(resp, "status reply", st.walk)
	}
	return st, err
}

// Steal directs machine donor to ship up to want big tasks to recv.
func (c *ClusterClient) Steal(donor, recv, want int) (int, error) {
	req := c.current()
	req.recv, req.want = recv, want
	var moved int
	resp, err := c.call(donor, opStealDo, req.walkSteal, maxFramePayload)
	if err == nil {
		err = store.Decode(resp, "steal reply", stealReply(&moved))
	}
	return moved, err
}

// Recover delivers a dead-machine directive to surviving machine m.
func (c *ClusterClient) Recover(m int, d RecoverDirective) error {
	_, err := c.call(m, opRecover, d.walk, maxFramePayload)
	return err
}

// Shutdown stops machine m's workers, joins them, and returns the
// machine's report. Unlike request traffic, the reply is accepted up to
// the absolute frame ceiling: a worker's whole result set ships in it,
// and a big mining run legitimately exceeds the 64 MiB request budget
// (writeFrame allows the same ceiling on the sender).
func (c *ClusterClient) Shutdown(m int) (*MachineReport, error) {
	resp, err := c.call(m, opShutdown, c.current().walk, maxWireFrame)
	if err != nil {
		return nil, err
	}
	return decodeReport(resp)
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
