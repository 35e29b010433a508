package gthinker

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"gthinkerqc/internal/graph"
	"gthinkerqc/internal/store"
)

// The TCP layer gives the engine a real network path: each machine's
// WorkerHost answers adjacency batches, stolen big-task batches and
// the control plane below on one listener (control.go), and
// TCPTransport connects to those hosts. The standalone VertexServer
// and TaskServer answer the same two data ops with the same functions
// (adjBatch, deliverBatch) for callers that want one plane without a
// host. Every exchange is one length-prefixed multi-op frame in each
// direction:
//
//	frame: op uint8, payloadLen uint32 (LE), payload [payloadLen]byte
//
// Ops (requests answered by a frame with the same op, or opError):
//
//	opAdjBatch  payload: count u32, count × u32 vertex IDs
//	            reply:   answered u32 (1 ≤ answered ≤ count), then
//	            answered × { deg u32, deg × u32 vertex IDs } for the
//	            first `answered` requested ids. The server answers a
//	            prefix when the full reply would overflow the frame
//	            budget; the client re-requests the remainder, so a
//	            huge batch degrades to more round trips instead of an
//	            un-receivable frame.
//	opTaskSteal payload: one GQS1 task batch (store.BatchEncoder
//	            framing, records encoded by the engine's TaskCodec —
//	            byte-identical to a spill file's contents)
//	            reply:   empty (acknowledgement after delivery)
//	opError     reply payload: UTF-8 message; the server closes the
//	            connection afterwards (the stream may be out of sync)
//
// A host refuses both data ops until it has joined.
//
// Control-plane ops (control.go; answered by the same host listener,
// spoken by the coordinator's ClusterClient). Each payload is one walk
// (store.Walker), named in brackets, that both sides run:
//
//	opJoin      payload [joinRequest.walk]: proto u32, machineID u32,
//	            the engine config [Config.walk]: machines u32,
//	            workersPerMachine u32, queueCap u32, batchSize u32,
//	            cacheCap u32, statusInterval u64, flags u32 (bit0 =
//	            no global queue, bit1 = trace), frameTimeout u64,
//	            deadAfterPolls u64, u32-len fault spec; then n u32, m
//	            u64, peers u32 + peers × u32-len address strings (every
//	            machine's host address, in machine order: the addresses
//	            the coordinator dialed). The worker verifies it serves
//	            that machine of that cluster over a graph with that
//	            fingerprint and that the peer table has one row per
//	            machine, builds its runtime under the config (which it
//	            validates first) and its TCPTransport over the peer
//	            table; no application exists until opRun. reply: empty.
//	0x05        retired; never reused.
//	opRun       payload [jobRequest.walkRun]: job u64, specLen u32 +
//	            opaque app job spec. Resets the machine onto that job
//	            with the application built from the spec and starts its
//	            mining workers. reply: empty. Every later job-scoped op
//	            (opStatus, opStealDo, opShutdown) opens its payload with
//	            the same job u64 [jobRequest.walk] and is refused by a
//	            machine that is on another job.
//	opStatus    payload: job. reply [MachineStatus.walk]: flags u8
//	            (bit0 = all spawned), live u64, bigPending u64,
//	            sentOut u64, recvIn u64, spawned u64, the counter table
//	            [Counters.walk], failure string — the liveness report
//	            feeding the coordinator's termination detection, steal
//	            planner, and per-machine durable-state tracking for
//	            worker-loss recovery. A long poll: a busy machine holds
//	            the reply for up to its StatusInterval and sends it the
//	            instant it goes quiescent or its job fails, so the
//	            exchange doubles as the termination and failure signal.
//	opStealDo   payload [jobRequest.walkSteal]: job, recv u32, want u32
//	            — a steal directive: the donor pops up to want big tasks
//	            and ships them to machine recv itself (opTaskSteal, GQS1
//	            bytes); the coordinator never relays task data.
//	            reply [stealReply]: moved u32.
//	0x08, 0x09  retired (the metrics, results and trace flushes that
//	and 0x0E    followed opShutdown until version 9); never reused.
//	opShutdown  payload: job. Stops and joins the machine's workers;
//	            the process keeps serving. reply [MachineReport.walk]:
//	            the failure string the machine's job recorded (empty if
//	            none), its metrics [Metrics.walk]: wall u64, the counter
//	            table, workers u32 + that many busy u64s;
//	            then u32-len spans as OTR1 [obs.Trace.walk] (empty unless
//	            the job traces), then u32-len opaque app-level result
//	            bytes (the miner's QRS3 quasi-clique sets and root
//	            rows). A failed machine still reports its work; only a
//	            frame for another job is answered with opError.
//	opExit      payload: empty. reply: empty; the worker host's
//	            WaitExit returns and the process terminates.
//	opRecover   payload [RecoverDirective.walk]: dead u32, fallback
//	            u32, adopter u32, nAdopt u32, nAdopt × u32 partition
//	            ids. Announces a dead machine to one survivor: the
//	            survivor redirects its adjacency fetches for the dead
//	            machine to fallback's host, re-enqueues any
//	            task batches it had shipped to the dead machine, and —
//	            if it is the designated adopter — takes over spawning
//	            the listed hash partitions' root tasks. reply: empty.
//
// Batching is the point: the engine resolves the remote pulls of a
// batch of C tasks with one opAdjBatch per owning machine instead of
// one round trip per task or vertex, and a stolen batch of C big tasks
// crosses the wire as one opTaskSteal frame. All integers are little-endian, matching the
// GQS1/GQC2 on-disk formats.
//
// Allocation off the wire is bounded on both sides: a frame's payload
// length is checked against maxFramePayload (and, server-side,
// against the largest possible request for the served graph) before
// the receive buffer is allocated, per-record counts are bounds-
// checked by store.Cursor against the bytes actually present before
// any slice is built, and adjacency degrees are validated against the
// known vertex count — a corrupt or malicious peer yields a protocol
// error, not an OOM.

const (
	opAdjBatch  byte = 0x01
	opTaskSteal byte = 0x02
	opError     byte = 0x7F
)

// maxFramePayload caps any frame accepted off a socket (64 MiB —
// comfortably above a BatchSize×τsplit task batch or a dense
// adjacency response, far below an allocation that could OOM the
// process).
const maxFramePayload = 64 << 20

// maxWireFrame is the absolute frame ceiling (1 GiB): writeFrame
// refuses anything larger instead of letting the u32 length prefix
// wrap and desync the stream.
const maxWireFrame = 1 << 30

// adjFrameBudget is the adjacency-response frame budget base — a var
// so tests can shrink it and exercise prefix answering without
// gigabyte graphs.
var adjFrameBudget = maxFramePayload

// adjResponseLimit returns the adjacency-response frame budget for a
// graph of n vertices: adjFrameBudget, widened just enough that one
// maximum-degree row (deg < n) always fits — the server's prefix
// answering guarantees progress only if a single answer can ship.
func adjResponseLimit(n int) int {
	lim := adjFrameBudget
	if need := 12 + 4*n; need > lim {
		lim = need
	}
	if lim > maxWireFrame {
		lim = maxWireFrame
	}
	return lim
}

// frameHeaderLen is op (1 byte) + payload length (4 bytes).
const frameHeaderLen = 5

// writeFrame emits one frame and flushes it.
func writeFrame(w *bufio.Writer, op byte, payload []byte) error {
	if len(payload) > maxWireFrame {
		return fmt.Errorf("gthinker: frame payload of %d bytes exceeds wire limit %d",
			len(payload), maxWireFrame)
	}
	var hdr [frameHeaderLen]byte
	hdr[0] = op
	binary.LittleEndian.PutUint32(hdr[1:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	return w.Flush()
}

// errFrameTooLarge marks a declared payload length over the reader's
// limit — a protocol violation the server reports back, unlike plain
// I/O errors.
var errFrameTooLarge = errors.New("frame exceeds size limit")

// readFrame reads one frame, bounding the payload allocation by
// maxPayload(op) before it happens. The returned payload is freshly
// allocated per frame, so decoded slices may alias it indefinitely.
func readFrame(r *bufio.Reader, maxPayload func(op byte) int) (byte, []byte, error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	// Compare in uint64 before any int conversion: on 32-bit hosts a
	// declared length ≥ 2³¹ must hit this check, not wrap negative and
	// panic the allocation below.
	n32 := binary.LittleEndian.Uint32(hdr[1:])
	if limit := maxPayload(hdr[0]); uint64(n32) > uint64(limit) {
		return 0, nil, fmt.Errorf("gthinker: %w: %d bytes declared, limit %d",
			errFrameTooLarge, n32, limit)
	}
	payload := make([]byte, int(n32))
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	return hdr[0], payload, nil
}

// anyOp is the frame limit that caps every op at n bytes.
func anyOp(n int) func(byte) int { return func(byte) int { return n } }

// adjRequestLimit caps an opAdjBatch request for a graph of n
// vertices: the largest well-formed one asks for every vertex once.
func adjRequestLimit(n int) int { return min(8+4*n, maxFramePayload) }

// serveFrames is the per-connection loop shared by all servers: read
// a request frame, dispatch it, write the reply. A dispatch error is
// reported to the client as an opError frame and closes the
// connection (after opError the stream state is not trusted). replied,
// when non-nil, runs after each successful reply is flushed — for an
// op whose effect must not overtake its own acknowledgement.
func serveFrames(conn net.Conn, maxReq func(op byte) int, dispatch func(op byte, payload []byte) ([]byte, error), replied func(op byte)) {
	r := bufio.NewReader(conn)
	w := bufio.NewWriter(conn)
	for {
		op, payload, err := readFrame(r, maxReq)
		if err != nil {
			if errors.Is(err, errFrameTooLarge) {
				writeFrame(w, opError, []byte(err.Error()))
			}
			return // EOF/broken pipe: client done
		}
		resp, err := dispatch(op, payload)
		if err != nil {
			writeFrame(w, opError, []byte(err.Error()))
			return
		}
		if err := writeFrame(w, op, resp); err != nil {
			return
		}
		if replied != nil {
			replied(op)
		}
	}
}

// listener wraps the accept loop shared by all servers. It tracks its
// live connections so close can interrupt handlers blocked reading
// from peers that tear down later — machine A's host must not
// wait for machine B's transport to hang up first, or a cluster-wide
// shutdown deadlocks on its own ordering.
type listener struct {
	ln net.Listener
	wg sync.WaitGroup

	mu    sync.Mutex
	conns map[net.Conn]struct{}
}

func (l *listener) serve(addr string, handle func(net.Conn)) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	l.ln = ln
	l.conns = make(map[net.Conn]struct{})
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			l.mu.Lock()
			l.conns[conn] = struct{}{}
			l.mu.Unlock()
			l.wg.Add(1)
			go func() {
				defer l.wg.Done()
				defer func() {
					l.mu.Lock()
					delete(l.conns, conn)
					l.mu.Unlock()
					conn.Close()
				}()
				handle(conn)
			}()
		}
	}()
	return nil
}

func (l *listener) addr() string { return l.ln.Addr().String() }

func (l *listener) close() error {
	err := l.ln.Close()
	l.mu.Lock()
	for conn := range l.conns {
		conn.Close()
	}
	l.mu.Unlock()
	l.wg.Wait()
	return err
}

// VertexServer serves adjacency lists of a graph over TCP (opAdjBatch).
type VertexServer struct {
	g      *graph.Graph
	l      listener
	served atomic.Uint64
}

// ServeVertexTable starts a server on addr ("127.0.0.1:0" picks a free
// port). Close it when done.
func ServeVertexTable(addr string, g *graph.Graph) (*VertexServer, error) {
	s := &VertexServer{g: g}
	if err := s.l.serve(addr, s.handle); err != nil {
		return nil, fmt.Errorf("gthinker: vertex server: %w", err)
	}
	return s, nil
}

// Addr returns the bound address.
func (s *VertexServer) Addr() string { return s.l.addr() }

// Served returns the number of adjacency lists served (each id of a
// batch counts once, mirroring Transport.Fetches on the client side).
func (s *VertexServer) Served() uint64 { return s.served.Load() }

// Close stops the server and waits for handlers to drain.
func (s *VertexServer) Close() error { return s.l.close() }

func (s *VertexServer) handle(conn net.Conn) {
	serveFrames(conn, anyOp(adjRequestLimit(s.g.NumVertices())), func(op byte, payload []byte) ([]byte, error) {
		if op != opAdjBatch {
			return nil, fmt.Errorf("gthinker: vertex server: unknown op 0x%02x", op)
		}
		resp, answered, err := adjBatch(s.g, payload)
		s.served.Add(uint64(answered))
		return resp, err
	}, nil)
}

// adjBatch answers one batched fetch against g, reporting how many ids
// it answered. Malformed requests (bad counts, out-of-range vertices,
// trailing bytes) produce an error — reported to the client as opError
// — instead of a silently dropped connection. When the full reply
// would overflow the frame budget, the server answers the longest
// prefix that fits (always at least one id, which adjResponseLimit
// guarantees is shippable) and the client re-requests the rest.
func adjBatch(g *graph.Graph, payload []byte) ([]byte, int, error) {
	n := g.NumVertices()
	c := store.NewCursor(payload)
	count := int(c.U32())
	if count > n {
		return nil, 0, fmt.Errorf("gthinker: adjacency batch: %d requests exceed vertex count %d", count, n)
	}
	if count < 1 {
		return nil, 0, fmt.Errorf("gthinker: adjacency batch: empty request")
	}
	ids := c.U32s(count)
	if err := c.Err(); err != nil {
		return nil, 0, fmt.Errorf("gthinker: adjacency batch: malformed request: %w", err)
	}
	if c.Remaining() != 0 {
		return nil, 0, fmt.Errorf("gthinker: adjacency batch: %d trailing bytes in request", c.Remaining())
	}
	for _, id := range ids {
		if int(id) >= n {
			return nil, 0, fmt.Errorf("gthinker: adjacency batch: vertex %d out of range [0,%d)", id, n)
		}
	}
	limit := adjResponseLimit(n)
	size := 4
	answered := 0
	for _, id := range ids {
		need := 4 + 4*len(g.Adj(id))
		if answered > 0 && size+need > limit {
			break
		}
		size += need
		answered++
	}
	resp := make([]byte, 0, size)
	resp = store.AppendU32(resp, uint32(answered))
	for _, id := range ids[:answered] {
		adj := g.Adj(id)
		resp = store.AppendU32(resp, uint32(len(adj)))
		resp = store.AppendU32s(resp, adj)
	}
	return resp, answered, nil
}

// TaskServer receives stolen big-task batches (opTaskSteal) for one
// machine: each frame is one GQS1 batch, decoded with the app's
// TaskCodec — the same serialization as spill files — and handed to
// the deliver callback before the acknowledgement goes out, so a
// sender's SendTasks return means the tasks are enqueued.
type TaskServer struct {
	l         listener
	codec     TaskCodec
	deliver   func([]*Task)
	delivered atomic.Uint64
}

// ServeTasks starts a task channel endpoint on addr. deliver receives
// each decoded batch (typically MachineRuntime.DeliverTasks, which
// pushes onto the machine's global queue); it runs on the connection
// goroutine and must be safe for concurrent use.
func ServeTasks(addr string, codec TaskCodec, deliver func([]*Task)) (*TaskServer, error) {
	if codec == nil || deliver == nil {
		return nil, fmt.Errorf("gthinker: task server needs a codec and a deliver callback")
	}
	s := &TaskServer{codec: codec, deliver: deliver}
	if err := s.l.serve(addr, s.handle); err != nil {
		return nil, fmt.Errorf("gthinker: task server: %w", err)
	}
	return s, nil
}

// Addr returns the bound address.
func (s *TaskServer) Addr() string { return s.l.addr() }

// Delivered returns the number of tasks delivered.
func (s *TaskServer) Delivered() uint64 { return s.delivered.Load() }

// Close stops the server and waits for handlers to drain.
func (s *TaskServer) Close() error { return s.l.close() }

func (s *TaskServer) handle(conn net.Conn) {
	serveFrames(conn, anyOp(maxFramePayload), func(op byte, payload []byte) ([]byte, error) {
		if op != opTaskSteal {
			return nil, fmt.Errorf("gthinker: task server: unknown op 0x%02x", op)
		}
		// A bare task server holds no graph, so any pull passes: no
		// slice, and so no graph, has more than MaxInt entries.
		n, err := deliverBatch(payload, s.codec, math.MaxInt, s.deliver)
		if err != nil {
			return nil, fmt.Errorf("gthinker: task server: %w", err)
		}
		s.delivered.Add(uint64(n))
		return nil, nil
	}, nil)
}

// deliverBatch decodes one opTaskSteal payload with codec, refusing a
// pull at or past numVertices, and hands the tasks to deliver,
// returning how many it delivered. The caller acknowledges only after
// it returns, so a sender's SendTasks return means the tasks are
// enqueued.
func deliverBatch(payload []byte, codec TaskCodec, numVertices int, deliver func([]*Task)) (int, error) {
	tasks, err := decodeTaskBatch(payload, codec, numVertices)
	if err != nil {
		return 0, err
	}
	deliver(tasks)
	return len(tasks), nil
}

// Dial and retry policy. Every dial in the package goes through
// dialWithRetry: a bounded dial timeout per attempt plus a few
// exponential-backoff retries with jitter, so a peer mid-restart or a
// dropped SYN does not immediately read as a dead machine. Vars (not
// consts) so tests can tighten the windows.
var (
	defaultDialTimeout  = 5 * time.Second
	defaultFrameTimeout = 30 * time.Second
	defaultDialAttempts = 4
	dialBackoffBase     = 10 * time.Millisecond
	opBackoffBase       = 5 * time.Millisecond
	retryBackoffCap     = 200 * time.Millisecond

	// dataOpAttempts is the idempotent-retry budget of the data plane
	// (opAdjBatch). Its total backoff window must exceed the
	// coordinator's worst-case failure-detection latency: a survivor
	// fetching a dead machine's rows keeps retrying — re-resolving the
	// fetch redirect each attempt — until the coordinator has declared
	// the machine dead and installed the fallback owner.
	dataOpAttempts = 12
	// ctlOpAttempts is the control plane's retry-once budget for
	// opStatus: one transient drop must not look like a missed poll.
	ctlOpAttempts = 2
)

// retryBackoff returns the jittered exponential backoff before retry
// attempt a (a ≥ 1). Jitter need not be deterministic — fault
// *injection* determinism lives in FaultPlan, not here.
func retryBackoff(base time.Duration, a int) time.Duration {
	d := base << (a - 1)
	if d > retryBackoffCap || d <= 0 {
		d = retryBackoffCap
	}
	return d/2 + time.Duration(rand.Int63n(int64(d)))
}

// dialWithRetry dials addr with a per-attempt timeout and up to
// `attempts` tries separated by jittered exponential backoff. All
// dials in the package — data plane, task channel, and joinCluster's
// control connections — go through here.
func dialWithRetry(addr string, timeout time.Duration, attempts int) (net.Conn, error) {
	return dialRetryInject(addr, timeout, attempts, nil, nil)
}

func dialRetryInject(addr string, timeout time.Duration, attempts int, fault *FaultPlan, retried *atomic.Uint64) (net.Conn, error) {
	if timeout <= 0 {
		timeout = defaultDialTimeout
	}
	if attempts < 1 {
		attempts = 1
	}
	var lastErr error
	for a := 0; a < attempts; a++ {
		if a > 0 {
			if retried != nil {
				retried.Add(1)
			}
			time.Sleep(retryBackoff(dialBackoffBase, a))
		}
		if err := fault.DialError(addr); err != nil {
			lastErr = err
			continue
		}
		c, err := net.DialTimeout("tcp", addr, timeout)
		if err == nil {
			return fault.WrapConn(c), nil
		}
		lastErr = err
	}
	return nil, fmt.Errorf("gthinker: dial %s (%d attempts): %w", addr, attempts, lastErr)
}

// connPool keeps one pooled connection per peer address, serialized by
// a per-peer mutex — adequate for the fetch granularity of this engine
// (the vertex cache absorbs reuse; the steal master is one goroutine).
//
// The pool is also where transport hardening lives: timed dials with
// retry, a per-exchange I/O deadline (frameTimeout), idempotent-op
// retries, and a per-peer fetch redirect installed by the recovery
// protocol (redirect[i] = fallback+1 routes peer i's exchanges to the
// fallback machine after i died; 0 means none).
type connPool struct {
	addrs []string
	mu    []sync.Mutex
	conns []*tcpConn

	frameTimeout time.Duration
	dialAttempts int
	opAttempts   int // per-op attempts for idempotent ops (≥ 1)
	fault        *FaultPlan
	redirect     []atomic.Int32
	retriedDials *atomic.Uint64 // optional counters, shared with owner
	retriedOps   *atomic.Uint64
}

type tcpConn struct {
	c net.Conn
	r *bufio.Reader
	w *bufio.Writer
}

func newConnPool(addrs []string) *connPool {
	return &connPool{
		addrs:        addrs,
		mu:           make([]sync.Mutex, len(addrs)),
		conns:        make([]*tcpConn, len(addrs)),
		frameTimeout: defaultFrameTimeout,
		dialAttempts: defaultDialAttempts,
		opAttempts:   1,
		redirect:     make([]atomic.Int32, len(addrs)),
	}
}

// configure applies the hardening knobs; a zero frameTimeout keeps the
// pool default, a negative one disables the deadline.
func (p *connPool) configure(frameTimeout time.Duration, fault *FaultPlan) {
	if frameTimeout != 0 {
		p.frameTimeout = frameTimeout
	}
	if p.frameTimeout < 0 {
		p.frameTimeout = 0
	}
	p.fault = fault
}

// setRedirect routes all future exchanges addressed to peer `dead` to
// peer `to` instead. Installed by the recovery protocol once the
// coordinator designates a fallback owner for a dead machine's rows.
func (p *connPool) setRedirect(dead, to int) {
	if dead >= 0 && dead < len(p.redirect) && to >= 0 && to < len(p.addrs) {
		p.redirect[dead].Store(int32(to) + 1)
	}
}

// target resolves i through the redirect table.
func (p *connPool) target(i int) int {
	if i >= 0 && i < len(p.redirect) {
		if r := p.redirect[i].Load(); r > 0 {
			return int(r) - 1
		}
	}
	return i
}

// idempotentOp reports whether op may be retried on a fresh connection
// after an I/O failure: read-only ops whose replay cannot duplicate
// state. Task delivery (opTaskSteal) and every control mutation are
// excluded — an ack lost after delivery must surface as an error, not
// a silent double-enqueue.
func idempotentOp(op byte) bool {
	switch op {
	case opAdjBatch, opStatus:
		return true
	}
	return false
}

// roundTrip performs one framed request/response exchange with peer i
// (resolved through the redirect table per attempt), bounding the
// response allocation by maxResp and accounting wire bytes in
// sent/recvd. Each attempt runs under the pool's frame deadline; on
// any error the pooled connection is dropped (the next call redials),
// and idempotent ops are retried with backoff up to the pool's
// attempt budget. Protocol errors (opError replies, oversized or
// mismatched frames) are never retried — only I/O failures are.
func (p *connPool) roundTrip(i int, op byte, payload []byte, maxResp int, sent, recvd *atomic.Uint64) ([]byte, error) {
	if i < 0 || i >= len(p.addrs) {
		return nil, fmt.Errorf("gthinker: no server for machine %d", i)
	}
	attempts := 1
	if p.opAttempts > 1 && idempotentOp(op) {
		attempts = p.opAttempts
	}
	var lastErr error
	for a := 0; a < attempts; a++ {
		if a > 0 {
			if p.retriedOps != nil {
				p.retriedOps.Add(1)
			}
			time.Sleep(retryBackoff(opBackoffBase, a))
		}
		resp, err, retryable := p.exchange(p.target(i), op, payload, maxResp, sent, recvd)
		if err == nil {
			return resp, nil
		}
		lastErr = err
		if !retryable {
			break
		}
	}
	return nil, lastErr
}

// exchange is one request/response attempt against peer i. The third
// return reports whether the failure is an I/O error a retry could
// plausibly clear (vs. a protocol violation).
func (p *connPool) exchange(i int, op byte, payload []byte, maxResp int, sent, recvd *atomic.Uint64) ([]byte, error, bool) {
	p.mu[i].Lock()
	defer p.mu[i].Unlock()
	cc := p.conns[i]
	if cc == nil {
		c, err := dialRetryInject(p.addrs[i], defaultDialTimeout, p.dialAttempts, p.fault, p.retriedDials)
		if err != nil {
			return nil, err, true
		}
		cc = &tcpConn{c: c, r: bufio.NewReader(c), w: bufio.NewWriter(c)}
		p.conns[i] = cc
	}
	if p.frameTimeout > 0 {
		cc.c.SetDeadline(time.Now().Add(p.frameTimeout))
	}
	if err := writeFrame(cc.w, op, payload); err != nil {
		p.drop(i)
		return nil, err, true
	}
	sent.Add(uint64(frameHeaderLen + len(payload)))
	respOp, resp, err := readFrame(cc.r, anyOp(maxResp))
	if err != nil {
		p.drop(i)
		if errors.Is(err, errFrameTooLarge) {
			return nil, fmt.Errorf("gthinker: machine %d: %w", i, err), false
		}
		return nil, fmt.Errorf("gthinker: machine %d: %w", i, err), true
	}
	recvd.Add(uint64(frameHeaderLen + len(resp)))
	if respOp == opError {
		// The server closes its end after an opError; drop ours too.
		p.drop(i)
		return nil, fmt.Errorf("gthinker: machine %d: server error: %s", i, resp), false
	}
	if respOp != op {
		p.drop(i)
		return nil, fmt.Errorf("gthinker: machine %d: response op 0x%02x for request 0x%02x", i, respOp, op), false
	}
	return resp, nil, false
}

func (p *connPool) drop(i int) {
	if cc := p.conns[i]; cc != nil {
		cc.c.Close()
		p.conns[i] = nil
	}
}

func (p *connPool) close() error {
	var firstErr error
	for i := range p.conns {
		p.mu[i].Lock()
		if p.conns[i] != nil {
			if err := p.conns[i].c.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
			p.conns[i] = nil
		}
		p.mu[i].Unlock()
	}
	return firstErr
}

// TCPTransport is the socket implementation of Transport (plus
// RetryStats): adjacency batches and stolen task batches go to each
// machine's host. The two kinds travel on separate
// connection pools, so a task send never queues behind a fetch.
type TCPTransport struct {
	verts       *connPool
	tasks       *connPool
	numVertices int

	fetches      atomic.Uint64
	batches      atomic.Uint64
	sent         atomic.Uint64
	recvd        atomic.Uint64
	retriedDials atomic.Uint64
	retriedOps   atomic.Uint64

	frameTimeout time.Duration
	fault        *FaultPlan
}

// NewTCPTransport returns a transport fetching adjacency from one
// address per machine (a WorkerHost or a VertexServer). numVertices is the served graph's vertex count, used to
// validate counts and degrees read off the wire before any dependent
// allocation; pass the real count (0 disables only the semantic check,
// the frame-size cap always applies).
func NewTCPTransport(addrs []string, numVertices int) *TCPTransport {
	t := &TCPTransport{verts: newConnPool(addrs), numVertices: numVertices}
	t.wirePool(t.verts, dataOpAttempts)
	return t
}

// Configure applies the hardening knobs to both planes: per-exchange
// frame deadline (zero keeps the 30 s default, negative disables) and
// an optional fault-injection plan. Call before the engine runs.
func (t *TCPTransport) Configure(frameTimeout time.Duration, fault *FaultPlan) {
	t.frameTimeout, t.fault = frameTimeout, fault
	t.verts.configure(frameTimeout, fault)
	if t.tasks != nil {
		t.tasks.configure(frameTimeout, fault)
	}
}

// Redirect reroutes adjacency fetches addressed to machine `dead` to
// machine `fallback` — the data-plane half of worker loss recovery.
// Sound because every machine serves the full mmap'd graph: a host
// answers any valid id regardless of the hash partition. Task delivery
// is deliberately not redirected; the steal planner stops targeting
// dead machines instead.
func (t *TCPTransport) Redirect(dead, fallback int) {
	t.verts.setRedirect(dead, fallback)
}

func (t *TCPTransport) wirePool(p *connPool, opAttempts int) {
	p.opAttempts = opAttempts
	p.retriedDials = &t.retriedDials
	p.retriedOps = &t.retriedOps
}

// SetTaskAddrs configures the task channel with one address per
// machine (a WorkerHost or a TaskServer), enabling remote task
// stealing. Call before the engine
// runs; the transport is not ready to ship tasks without it.
func (t *TCPTransport) SetTaskAddrs(addrs []string) {
	t.tasks = newConnPool(addrs)
	// Task delivery is not idempotent (a lost ack after delivery must
	// not replay the batch), so the task pool never retries ops.
	t.wirePool(t.tasks, 1)
	t.tasks.configure(t.frameTimeout, t.fault)
}

// FetchAdjBatch fetches the adjacency lists of ids from their owner,
// appended to dst, normally in one round trip; when the server answers
// a prefix to keep a reply inside the frame budget, the remainder is
// re-requested, so a huge batch costs extra round trips instead of
// failing. The appended inner lists alias their receive buffers
// (fresh per frame), never dst. An id the addressed machine does not
// own is refused before anything is sent: the check runs on the
// address the caller routed to, ahead of any recovery redirect.
func (t *TCPTransport) FetchAdjBatch(own int, ids []graph.V, dst [][]graph.V) ([][]graph.V, error) {
	machines := len(t.verts.addrs)
	for _, id := range ids {
		if o := owner(id, machines); o != own {
			return nil, fmt.Errorf("gthinker: vertex %d routed to machine %d but owned by %d", id, own, o)
		}
	}
	out := dst
	maxResp := adjResponseLimit(t.numVertices)
	for rest := ids; len(rest) > 0; {
		req := make([]byte, 0, 4+4*len(rest))
		req = store.AppendU32(req, uint32(len(rest)))
		req = store.AppendU32s(req, rest)
		resp, err := t.verts.roundTrip(own, opAdjBatch, req, maxResp, &t.sent, &t.recvd)
		if err != nil {
			return nil, err
		}
		var answered int
		out, answered, err = appendAdjBatchResponse(out, resp, len(rest), t.numVertices)
		if err != nil {
			return nil, fmt.Errorf("gthinker: machine %d: %w", own, err)
		}
		rest = rest[answered:]
		t.batches.Add(1)
	}
	t.fetches.Add(uint64(len(ids)))
	return out, nil
}

// appendAdjBatchResponse decodes one opAdjBatch reply — the answered
// count (1 ≤ answered ≤ requested), then that many adjacency lists —
// appending the lists to dst. The lists alias payload (freshly
// allocated per frame by readFrame, so they stay valid and immutable).
// Counts and degrees are validated against requested/numVertices and
// against the bytes actually present — a lying peer cannot trigger an
// oversized allocation or an endless re-request loop.
func appendAdjBatchResponse(dst [][]graph.V, payload []byte, requested, numVertices int) ([][]graph.V, int, error) {
	c := store.NewCursor(payload)
	answered := int(c.U32())
	if c.Err() == nil && (answered < 1 || answered > requested) {
		return dst, 0, fmt.Errorf("gthinker: adj batch response answers %d of %d requests", answered, requested)
	}
	if err := c.Err(); err != nil {
		return dst, 0, fmt.Errorf("gthinker: truncated adj batch response: %w", err)
	}
	base := len(dst)
	for i := 0; i < answered; i++ {
		deg := c.U32()
		if numVertices > 0 && deg > uint32(numVertices) {
			return dst[:base], 0, fmt.Errorf("gthinker: adjacency %d of %d: degree %d exceeds vertex count %d",
				i, answered, deg, numVertices)
		}
		dst = append(dst, c.U32s(int(deg)))
	}
	if err := c.Err(); err != nil {
		return dst[:base], 0, fmt.Errorf("gthinker: truncated adj batch response: %w", err)
	}
	if c.Remaining() != 0 {
		return dst[:base], 0, fmt.Errorf("gthinker: %d trailing bytes in adj batch response", c.Remaining())
	}
	return dst, answered, nil
}

// SendTasks ships one GQS1 task batch to machine dest and waits for
// the acknowledgement (sent after delivery).
func (t *TCPTransport) SendTasks(dest int, batch []byte) error {
	if t.tasks == nil || len(t.tasks.addrs) == 0 {
		return fmt.Errorf("gthinker: task channel not configured (SetTaskAddrs)")
	}
	_, err := t.tasks.roundTrip(dest, opTaskSteal, batch, maxFramePayload, &t.sent, &t.recvd)
	return err
}

// Fetches returns the number of adjacency lists fetched.
func (t *TCPTransport) Fetches() uint64 { return t.fetches.Load() }

// BatchedFetches returns the number of fetch round trips.
func (t *TCPTransport) BatchedFetches() uint64 { return t.batches.Load() }

// WireBytes returns total bytes sent and received, frame headers
// included.
func (t *TCPTransport) WireBytes() (sent, received uint64) {
	return t.sent.Load(), t.recvd.Load()
}

// RetriedDials returns the number of dial attempts beyond the first
// of each dialWithRetry call.
func (t *TCPTransport) RetriedDials() uint64 { return t.retriedDials.Load() }

// RetriedOps returns the number of idempotent-op retries (attempts
// beyond the first of each round trip).
func (t *TCPTransport) RetriedOps() uint64 { return t.retriedOps.Load() }

// Close tears down pooled connections.
func (t *TCPTransport) Close() error {
	err := t.verts.close()
	if t.tasks != nil {
		if terr := t.tasks.close(); err == nil {
			err = terr
		}
	}
	if err != nil && !errors.Is(err, io.EOF) {
		return err
	}
	return nil
}
