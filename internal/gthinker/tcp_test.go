package gthinker

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"net"
	"reflect"
	"slices"
	"strings"
	"testing"

	"gthinkerqc/internal/datagen"
	"gthinkerqc/internal/graph"
	"gthinkerqc/internal/store"
)

func TestVertexServerRoundTrip(t *testing.T) {
	g := datagen.ErdosRenyi(50, 0.2, 9)
	srv, err := ServeVertexTable("127.0.0.1:0", g)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tr := NewTCPTransport([]string{srv.Addr()}, g.NumVertices())
	defer tr.Close()
	for v := 0; v < g.NumVertices(); v++ {
		adj, err := fetchOne(tr, 0, graph.V(v))
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(adj, g.Adj(graph.V(v))) {
			t.Fatalf("adjacency of %d corrupted over TCP: %v vs %v", v, adj, g.Adj(graph.V(v)))
		}
	}
	if tr.Fetches() != uint64(g.NumVertices()) {
		t.Fatalf("fetches = %d", tr.Fetches())
	}
	if srv.Served() != uint64(g.NumVertices()) {
		t.Fatalf("served = %d", srv.Served())
	}
	sent, recvd := tr.WireBytes()
	if sent == 0 || recvd == 0 {
		t.Fatalf("wire bytes not accounted: %d/%d", sent, recvd)
	}
}

// TestFetchAdjBatchParity: one batched round trip returns exactly the
// lists that per-vertex fetches (and the graph itself) return, in
// request order.
func TestFetchAdjBatchParity(t *testing.T) {
	g := datagen.ErdosRenyi(120, 0.1, 4)
	srv, err := ServeVertexTable("127.0.0.1:0", g)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tr := NewTCPTransport([]string{srv.Addr()}, g.NumVertices())
	defer tr.Close()
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		ids := make([]graph.V, 1+rng.Intn(40))
		for i := range ids {
			ids[i] = graph.V(rng.Intn(g.NumVertices()))
		}
		before := tr.BatchedFetches()
		adjs, err := tr.FetchAdjBatch(0, ids, nil)
		if err != nil {
			t.Fatal(err)
		}
		if tr.BatchedFetches() != before+1 {
			t.Fatal("batch did not count as one round trip")
		}
		if len(adjs) != len(ids) {
			t.Fatalf("%d lists for %d ids", len(adjs), len(ids))
		}
		for i, id := range ids {
			single, err := fetchOne(tr, 0, id)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(adjs[i], single) || !slices.Equal(adjs[i], g.Adj(id)) {
				t.Fatalf("batch adjacency of %d diverges: %v vs %v vs %v",
					id, adjs[i], single, g.Adj(id))
			}
		}
	}
	if tr.Fetches() <= tr.BatchedFetches() {
		t.Fatalf("fetch accounting: %d lists over %d round trips",
			tr.Fetches(), tr.BatchedFetches())
	}
}

func TestTCPTransportErrors(t *testing.T) {
	tr := NewTCPTransport([]string{"127.0.0.1:1"}, 10) // nothing listens here
	defer tr.Close()
	if _, err := fetchOne(tr, 0, 0); err == nil {
		t.Fatal("dial to dead server succeeded")
	}
	if _, err := fetchOne(tr, 5, 0); err == nil {
		t.Fatal("out-of-range owner accepted")
	}
	if err := tr.SendTasks(0, nil); err == nil || !strings.Contains(err.Error(), "task channel") {
		t.Fatalf("unconfigured task channel accepted a send: %v", err)
	}
}

// TestTCPTransportRefusesMisroutedFetch: the socket data plane keeps
// the Transport contract the loopback keeps — a vertex asked of a
// machine that does not own it is refused before anything is sent,
// though the server there would answer it. A recovery redirect still
// works: the fetch is addressed to the dead owner, then rerouted.
func TestTCPTransportRefusesMisroutedFetch(t *testing.T) {
	g := datagen.ErdosRenyi(40, 0.2, 3)
	var addrs []string
	var servers []*VertexServer
	for i := 0; i < 2; i++ {
		srv, err := ServeVertexTable("127.0.0.1:0", g)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		servers = append(servers, srv)
		addrs = append(addrs, srv.Addr())
	}
	tr := NewTCPTransport(addrs, g.NumVertices())
	defer tr.Close()
	v := graph.V(0)
	for owner(v, 2) != 1 {
		v++
	}
	if _, err := fetchOne(tr, 0, v); err == nil || !strings.Contains(err.Error(), "owned by") {
		t.Fatalf("vertex %d of machine 1 fetched from machine 0: err = %v", v, err)
	}
	if servers[0].Served() != 0 {
		t.Fatalf("machine 0 served %d rows for a refused fetch", servers[0].Served())
	}
	tr.Redirect(1, 0)
	adj, err := fetchOne(tr, 1, v)
	if err != nil || !slices.Equal(adj, g.Adj(v)) {
		t.Fatalf("redirected fetch of %d: %v, %v", v, adj, err)
	}
	if servers[0].Served() != 1 || servers[1].Served() != 0 {
		t.Fatalf("redirect served %d/%d rows, want 1/0", servers[0].Served(), servers[1].Served())
	}
}

// rogueServer accepts one connection and answers every frame with a
// fixed raw response, for driving the client through malformed input.
func rogueServer(t *testing.T, resp []byte) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				r := bufio.NewReader(conn)
				for {
					if _, _, err := readFrame(r, anyOp(maxFramePayload)); err != nil {
						return
					}
					if _, err := conn.Write(resp); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// TestTCPBoundedAllocation: a peer declaring absurd sizes must produce
// a protocol error before any dependent allocation, not an OOM.
func TestTCPBoundedAllocation(t *testing.T) {
	// Degree far beyond the vertex count, inside a well-formed frame.
	payload := store.AppendU32(store.AppendU32(nil, 1), 1<<30) // answered=1, deg huge
	frame := append([]byte{opAdjBatch}, binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))...)
	frame = append(frame, payload...)
	tr := NewTCPTransport([]string{rogueServer(t, frame)}, 100)
	defer tr.Close()
	if _, err := fetchOne(tr, 0, 3); err == nil || !strings.Contains(err.Error(), "exceeds vertex count") {
		t.Fatalf("huge degree accepted: %v", err)
	}

	// Frame length beyond the hard cap: rejected from the header alone
	// (the length field is compared before the int conversion, so even
	// ≥ 2³¹ values fail cleanly on 32-bit hosts).
	huge := append([]byte{opAdjBatch}, binary.LittleEndian.AppendUint32(nil, 1<<31)...)
	tr2 := NewTCPTransport([]string{rogueServer(t, huge)}, 100)
	defer tr2.Close()
	if _, err := fetchOne(tr2, 0, 3); err == nil || !strings.Contains(err.Error(), "exceeds size limit") {
		t.Fatalf("oversized frame accepted: %v", err)
	}

	// An answered count above the requested count would desync the
	// re-request loop; rejected before any list is decoded.
	over := store.AppendU32(nil, 9) // answered=9 for a 1-id request
	frameO := append([]byte{opAdjBatch}, binary.LittleEndian.AppendUint32(nil, uint32(len(over)))...)
	frameO = append(frameO, over...)
	trO := NewTCPTransport([]string{rogueServer(t, frameO)}, 100)
	defer trO.Close()
	if _, err := fetchOne(trO, 0, 3); err == nil || !strings.Contains(err.Error(), "answers") {
		t.Fatalf("over-answered response accepted: %v", err)
	}

	// Truncated adjacency data: the degree claims more than the frame
	// holds; the cursor's bounds check fires before the slice is built.
	short := store.AppendU32(store.AppendU32(nil, 1), 90) // deg 90 ≤ n, no data follows
	frame3 := append([]byte{opAdjBatch}, binary.LittleEndian.AppendUint32(nil, uint32(len(short)))...)
	frame3 = append(frame3, short...)
	tr3 := NewTCPTransport([]string{rogueServer(t, frame3)}, 100)
	defer tr3.Close()
	if _, err := fetchOne(tr3, 0, 3); err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("truncated response accepted: %v", err)
	}
}

// TestFetchAdjBatchPrefixAnswer shrinks the adjacency frame budget so
// the server must answer in prefixes: the batch completes over several
// round trips with results identical to the graph.
func TestFetchAdjBatchPrefixAnswer(t *testing.T) {
	old := adjFrameBudget
	adjFrameBudget = 64 // a handful of rows per frame
	g := datagen.ErdosRenyi(50, 0.2, 3)
	srv, err := ServeVertexTable("127.0.0.1:0", g)
	if err != nil {
		adjFrameBudget = old
		t.Fatal(err)
	}
	tr := NewTCPTransport([]string{srv.Addr()}, g.NumVertices())
	ids := make([]graph.V, g.NumVertices())
	for i := range ids {
		ids[i] = graph.V(i)
	}
	adjs, ferr := tr.FetchAdjBatch(0, ids, nil)
	trips := tr.BatchedFetches()
	// Tear down before restoring the budget so no handler goroutine
	// reads the var concurrently with the write.
	tr.Close()
	srv.Close()
	adjFrameBudget = old
	if ferr != nil {
		t.Fatal(ferr)
	}
	if trips < 2 {
		t.Fatalf("tiny budget produced %d round trips; prefix answering not exercised", trips)
	}
	for i, id := range ids {
		if !slices.Equal(adjs[i], g.Adj(id)) {
			t.Fatalf("adjacency of %d corrupted across prefix answers", id)
		}
	}
	if srv.Served() != uint64(len(ids)) || tr.Fetches() != uint64(len(ids)) {
		t.Fatalf("served=%d fetches=%d, want %d", srv.Served(), tr.Fetches(), len(ids))
	}
}

// TestVertexServerUnknownOp: protocol garbage gets an explicit opError
// frame back, never a silent close.
func TestVertexServerUnknownOp(t *testing.T) {
	g := datagen.ErdosRenyi(10, 0.3, 1)
	srv, err := ServeVertexTable("127.0.0.1:0", g)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	w := bufio.NewWriter(conn)
	if err := writeFrame(w, 0x42, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	op, payload, err := readFrame(bufio.NewReader(conn), anyOp(maxFramePayload))
	if err != nil {
		t.Fatalf("no response to unknown op: %v", err)
	}
	if op != opError || !bytes.Contains(payload, []byte("unknown op")) {
		t.Fatalf("op=0x%02x payload=%q", op, payload)
	}
}

// TestTaskServerWireRoundTrip ships a GQS1 batch through SendTasks and
// checks the decoded tasks that reach the sink are identical — the
// spill serialization doubling as the wire format.
func TestTaskServerWireRoundTrip(t *testing.T) {
	in := make([]*Task, 12)
	for i := range in {
		in[i] = NewTask([]graph.V{graph.V(i), graph.V(i * 3)})
		in[i].Pulls = []graph.V{graph.V(i + 7)}
	}
	in[4].Payload = nil
	var got []*Task
	done := make(chan struct{})
	srv, err := ServeTasks("127.0.0.1:0", toyCodec{}, func(tasks []*Task) {
		got = tasks
		close(done)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tr := NewTCPTransport(nil, 1)
	tr.SetTaskAddrs([]string{srv.Addr()})
	defer tr.Close()
	var enc store.BatchEncoder
	data, err := encodeTaskBatch(&enc, in, toyCodec{})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.SendTasks(0, data); err != nil {
		t.Fatal(err)
	}
	<-done // SendTasks acks after delivery, so this never blocks
	if len(got) != len(in) {
		t.Fatalf("delivered %d of %d tasks", len(got), len(in))
	}
	for i, tk := range got {
		if tk.ID != in[i].ID || !slices.Equal(tk.Pulls, in[i].Pulls) {
			t.Fatalf("task %d corrupted over the wire: %+v vs %+v", i, tk, in[i])
		}
		if i == 4 {
			if tk.Payload != nil {
				t.Fatalf("nil payload resurrected: %v", tk.Payload)
			}
			continue
		}
		if !slices.Equal(tk.Payload.([]graph.V), in[i].Payload.([]graph.V)) {
			t.Fatalf("task %d payload corrupted: %v vs %v", i, tk.Payload, in[i].Payload)
		}
	}
	if srv.Delivered() != uint64(len(in)) {
		t.Fatalf("delivered counter = %d", srv.Delivered())
	}
	// A corrupt batch is rejected with an explicit server error.
	if err := tr.SendTasks(0, data[:len(data)-2]); err == nil || !strings.Contains(err.Error(), "server error") {
		t.Fatalf("corrupt batch accepted: %v", err)
	}
}

// TestTaskFrameBeforeFirstJob: a socket host's task server is up from
// join, but the machine has no application until its first run. A
// payload-carrying task frame arriving in that window is socket input
// like any other — it must be refused with an error reply, not take
// the process down — and the host must still run a job afterwards.
func TestTaskFrameBeforeFirstJob(t *testing.T) {
	g := datagen.ErdosRenyi(120, 0.08, 5)
	c := testCluster(t, g, Config{
		Machines: 2, WorkersPerMachine: 1, InProcessTCP: true, SpillDir: t.TempDir(),
	})
	var enc store.BatchEncoder
	data, err := encodeTaskBatch(&enc, []*Task{NewTask([]graph.V{1, 2, 3})}, toyCodec{})
	if err != nil {
		t.Fatal(err)
	}
	err = c.hosts[0].tr.SendTasks(1, data)
	if err == nil || !strings.Contains(err.Error(), "not on a job") {
		t.Fatalf("task frame to an idle machine: %v", err)
	}
	app := &triApp{g: g}
	if _, err := c.run(context.Background(), app); err != nil {
		t.Fatal(err)
	}
	if want := bruteTriangles(g); app.count.Load() != want {
		t.Fatalf("triangles after the refused frame = %d, want %d", app.count.Load(), want)
	}
}

// unjoinedHost starts a socket host for machine 0 of any cluster size
// over g that has not joined yet.
func unjoinedHost(t *testing.T, g *graph.Graph) *WorkerHost {
	t.Helper()
	h, err := StartWorkerHost(WorkerHostConfig{Graph: g, NewApp: func([]byte, int) (App, Config, error) {
		return nilApp{}, Config{WorkersPerMachine: 1, SpillDir: t.TempDir()}, nil
	}, Results: noResults})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Close)
	return h
}

// joinAlone is the join of a one-machine cluster whose peer table is
// peers.
func joinAlone(g *graph.Graph, peers ...string) joinRequest {
	return joinRequest{Machines: 1, NumVerts: g.NumVertices(), NumEdges: uint64(g.NumEdges()), Peers: peers}
}

// TestHostRuntimeNilBeforeJoin: Runtime() is nil until the join, so
// qcworker's debug scrape reports "no series" instead of reading a
// runtime that does not exist; the join builds the runtime and its
// transport together, and from then on Runtime() is non-nil.
func TestHostRuntimeNilBeforeJoin(t *testing.T) {
	g := datagen.ErdosRenyi(40, 0.1, 3)
	h := unjoinedHost(t, g)
	if h.Runtime() != nil {
		t.Fatal("runtime visible before the join")
	}
	if err := h.handleJoin(joinAlone(g, h.Addr())); err != nil {
		t.Fatal(err)
	}
	if rt := h.Runtime(); rt == nil || len(rt.Samples()) == 0 {
		t.Fatal("no runtime after the join")
	}
}

// TestHostJoinChecksPeerTable: a join whose peer table does not hold
// exactly one address per machine is refused and leaves the host
// unjoined, so a correct join still succeeds afterwards.
func TestHostJoinChecksPeerTable(t *testing.T) {
	g := datagen.ErdosRenyi(40, 0.1, 3)
	h := unjoinedHost(t, g)
	for _, peers := range [][]string{nil, {h.Addr(), h.Addr()}} {
		err := h.handleJoin(joinAlone(g, peers...))
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("peer table of %d machines for a cluster of 1", len(peers))) {
			t.Fatalf("join with %d peers: %v", len(peers), err)
		}
		if h.Runtime() != nil {
			t.Fatalf("refused join with %d peers built a runtime", len(peers))
		}
	}
	if err := h.handleJoin(joinAlone(g, h.Addr())); err != nil {
		t.Fatal(err)
	}
}

// TestHostRefusesDataBeforeJoin: adjacency and task frames reaching a
// host's address before its join are answered with an error, not
// served from a machine that has no cluster yet.
func TestHostRefusesDataBeforeJoin(t *testing.T) {
	g := datagen.ErdosRenyi(40, 0.1, 3)
	h := unjoinedHost(t, g)
	tr := NewTCPTransport([]string{h.Addr()}, g.NumVertices())
	tr.SetTaskAddrs([]string{h.Addr()})
	defer tr.Close()
	if _, err := fetchOne(tr, 0, 1); err == nil || !strings.Contains(err.Error(), "has not joined") {
		t.Fatalf("adjacency batch before join: %v", err)
	}
	var enc store.BatchEncoder
	data, err := encodeTaskBatch(&enc, []*Task{NewTask([]graph.V{1, 2, 3})}, toyCodec{})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.SendTasks(0, data); err == nil || !strings.Contains(err.Error(), "has not joined") {
		t.Fatalf("task batch before join: %v", err)
	}
}

// TestHostOneAddressServesEveryOp: the address a socket host reports
// answers the coordinator's status poll, a peer's adjacency batch and
// a peer's stolen task batch — one listener per machine.
func TestHostOneAddressServesEveryOp(t *testing.T) {
	g := datagen.ErdosRenyi(60, 0.1, 7)
	c := testCluster(t, g, Config{Machines: 2, WorkersPerMachine: 1, InProcessTCP: true, SpillDir: t.TempDir()})
	rts := installJob(t, c.Cluster, nilApp{})
	addr := c.hosts[1].Addr()

	ctl := &ClusterClient{pool: newConnPool([]string{addr})}
	defer ctl.Close()
	if _, err := ctl.Status(0); err != nil {
		t.Fatalf("status poll: %v", err)
	}

	tr := NewTCPTransport([]string{addr}, g.NumVertices())
	tr.SetTaskAddrs([]string{addr})
	defer tr.Close()
	ids := []graph.V{0, 17, 59}
	rows, err := tr.FetchAdjBatch(0, ids, nil)
	if err != nil {
		t.Fatalf("adjacency batch: %v", err)
	}
	for i, v := range ids {
		if !reflect.DeepEqual(rows[i], g.Adj(v)) {
			t.Fatalf("adjacency of %d: %v, want %v", v, rows[i], g.Adj(v))
		}
	}

	var enc store.BatchEncoder
	data, err := encodeTaskBatch(&enc, []*Task{NewTask([]graph.V{4, 5})}, toyCodec{})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.SendTasks(0, data); err != nil {
		t.Fatalf("task batch: %v", err)
	}
	if got := rts[1].jb().qglobal.popBackBatch(10); len(got) != 1 || !reflect.DeepEqual(got[0].Payload, []graph.V{4, 5}) {
		t.Fatalf("delivered %v", got)
	}
}

// TestShutdownRefusesOtherJob: a machine reports only the job it is
// on. A shutdown stamped with another job is answered with opError,
// not with this job's report; the right job's shutdown then reports.
func TestShutdownRefusesOtherJob(t *testing.T) {
	g := datagen.ErdosRenyi(60, 0.1, 7)
	c := testCluster(t, g, Config{Machines: 2, WorkersPerMachine: 1, InProcessTCP: true, SpillDir: t.TempDir()})
	installJob(t, c.Cluster, nilApp{})
	ctl := c.ctl.(*ClusterClient)
	ctl.job.Store(1)
	if rep, err := ctl.Shutdown(1); err == nil || !strings.Contains(err.Error(), "is on job 0, not job 1") {
		t.Fatalf("shutdown for another job: %+v, %v", rep, err)
	}
	ctl.job.Store(0)
	rep, err := ctl.Shutdown(1)
	if err != nil || rep.Failure != "" || rep.Metrics == nil || len(rep.Trace.Spans) != 0 || len(rep.Results) != 0 {
		t.Fatalf("shutdown report: %+v, %v", rep, err)
	}
}

// TestEngineTCPTransport runs the triangle-counting app over real
// sockets: one vertex server per simulated machine, every remote
// adjacency fetch a TCP round trip. The count must match the loopback
// run exactly.
func TestEngineTCPTransport(t *testing.T) {
	g := datagen.ErdosRenyi(200, 0.06, 11)
	want := bruteTriangles(g)

	const machines = 3
	addrs := make([]string, machines)
	var servers []*VertexServer
	for i := 0; i < machines; i++ {
		srv, err := ServeVertexTable("127.0.0.1:0", g)
		if err != nil {
			t.Fatal(err)
		}
		servers = append(servers, srv)
		addrs[i] = srv.Addr()
	}
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()

	// One hand-wired transport per machine, in place of the loopback.
	var trs []*TCPTransport
	defer func() {
		for _, tr := range trs {
			tr.Close()
		}
	}()
	app := &triApp{g: g}
	c, err := newTestCluster(g, Config{
		Machines: machines, WorkersPerMachine: 2, SpillDir: t.TempDir(),
	}, func(int, *loopback) Transport {
		tr := NewTCPTransport(addrs, g.NumVertices())
		trs = append(trs, tr)
		return tr
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	res, err := c.run(context.Background(), app)
	if err != nil {
		t.Fatal(err)
	}
	met := res.Metrics
	if app.count.Load() != want {
		t.Fatalf("triangles over TCP = %d, want %d", app.count.Load(), want)
	}
	if met.RemoteFetches == 0 {
		t.Fatal("no remote fetches went over TCP")
	}
	if met.BatchedFetches == 0 || met.BatchedFetches > met.RemoteFetches {
		t.Fatalf("batch accounting: %d round trips for %d fetches",
			met.BatchedFetches, met.RemoteFetches)
	}
	if met.WireBytesSent == 0 || met.WireBytesReceived == 0 {
		t.Fatalf("wire bytes not surfaced: %+v", met)
	}
	total := uint64(0)
	for _, s := range servers {
		total += s.Served()
	}
	if total != met.RemoteFetches {
		t.Fatalf("server-side count %d != engine count %d", total, met.RemoteFetches)
	}
}

// --- fuzz targets for the multi-op frame decoders -----------------------

// FuzzAdjBatchRequest feeds arbitrary bytes to the server-side request
// decoder: it must reject garbage with an error, never panic or
// over-allocate.
func FuzzAdjBatchRequest(f *testing.F) {
	g := datagen.ErdosRenyi(30, 0.2, 5)
	good := store.AppendU32s(store.AppendU32(nil, 3), []graph.V{1, 2, 3})
	f.Add(good)
	f.Add([]byte{})
	f.Add(store.AppendU32(nil, 1<<31))
	f.Fuzz(func(t *testing.T, data []byte) {
		resp, _, err := adjBatch(g, data)
		if err == nil {
			// A valid request must round-trip through the client decoder.
			count := int(binary.LittleEndian.Uint32(data))
			if _, _, derr := appendAdjBatchResponse(nil, resp, count, g.NumVertices()); derr != nil {
				t.Fatalf("server accepted %q but client rejects response: %v", data, derr)
			}
		}
	})
}

// FuzzAdjBatchResponse feeds arbitrary bytes to the client-side
// response decoder.
func FuzzAdjBatchResponse(f *testing.F) {
	f.Add([]byte{}, 1)
	f.Add(store.AppendU32s(store.AppendU32(nil, 2), []graph.V{4, 5}), 1)
	f.Add(store.AppendU32(nil, 1<<30), 1)
	f.Fuzz(func(t *testing.T, data []byte, count int) {
		if count < 0 || count > 1<<10 {
			return
		}
		appendAdjBatchResponse(nil, data, count, 1000) // must not panic
	})
}

// FuzzTaskBatchDecode feeds arbitrary bytes to the wire-batch decoder
// (the opTaskSteal path).
func FuzzTaskBatchDecode(f *testing.F) {
	var enc store.BatchEncoder
	good, _ := encodeTaskBatch(&enc, mkVecTasks(3), toyCodec{})
	f.Add(append([]byte(nil), good...))
	f.Add([]byte("GQS1"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		decodeTaskBatch(data, toyCodec{}, testVertices) // must not panic
	})
}

// FuzzReadFrame feeds arbitrary byte streams to the frame reader.
func FuzzReadFrame(f *testing.F) {
	f.Add([]byte{opAdjBatch, 0, 0, 0, 0})
	f.Add([]byte{opError, 255, 255, 255, 255, 'x'})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bufio.NewReader(bytes.NewReader(data))
		for {
			if _, _, err := readFrame(r, anyOp(1<<16)); err != nil {
				return
			}
		}
	})
}
