package gthinker

import (
	"bufio"
	"encoding/hex"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"gthinkerqc/internal/obs"
	"gthinkerqc/internal/store"
)

// goldenHandler is a control handler with fixed, non-default answers
// that records what each request decoded to.
type goldenHandler struct {
	mu   sync.Mutex
	got  []any
	exit chan struct{}
}

func (h *goldenHandler) note(v any) {
	h.mu.Lock()
	h.got = append(h.got, v)
	h.mu.Unlock()
}

var (
	goldenStatus = MachineStatus{AllSpawned: true, Live: 3, BigPending: 2, SentOut: 11, RecvIn: 12, Spawned: 40,
		Counters: Counters{TasksSpawned: 40, CacheHits: 1 << 33, TraceDropped: 7}, Failure: "disk full"}
	goldenMetrics = &Metrics{Wall: 1500 * time.Millisecond, Counters: Counters{ComputeCalls: 9, PeakHeapAlloc: 1 << 40},
		WorkerBusy: []time.Duration{5 * time.Millisecond, 6 * time.Millisecond}}
	goldenTrace = &obs.Trace{Dropped: 3, Spans: []obs.Span{
		{Kind: obs.KindFetch, Pid: 1, Tid: -1, Start: 1700000000123456789, Dur: 2500, Arg1: 0, Arg2: 34},
	}}
	goldenReport = &MachineReport{Failure: "out of memory", Metrics: goldenMetrics, Trace: goldenTrace, Results: []byte("opaque")}
)

func (h *goldenHandler) handleJoin(r joinRequest) error {
	h.note(r)
	return nil
}
func (h *goldenHandler) handleAdjBatch([]byte) ([]byte, error) {
	panic("no data frames in the golden run")
}
func (h *goldenHandler) handleTasks([]byte) error { panic("no data frames in the golden run") }
func (h *goldenHandler) handleRun(job uint64, spec []byte) error {
	h.note([]any{job, string(spec)})
	return nil
}
func (h *goldenHandler) handleStatus(job uint64) (MachineStatus, error) {
	h.note(job)
	return goldenStatus, nil
}
func (h *goldenHandler) handleSteal(job uint64, recv, want int) (int, error) {
	h.note([]any{job, recv, want})
	return 2, nil
}
func (h *goldenHandler) handleRecover(d RecoverDirective) error {
	h.note(d)
	return nil
}
func (h *goldenHandler) handleShutdown(job uint64) (*MachineReport, error) {
	h.note(job)
	return goldenReport, nil
}
func (h *goldenHandler) handleExit() { close(h.exit) }

// wireFrame is one frame seen on the control connection.
type wireFrame struct {
	op  byte
	hex string
}

// recordingProxy forwards each control frame between a client and the
// server at target, recording requests and replies in order.
func recordingProxy(t *testing.T, target string) (string, func() []wireFrame) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu     sync.Mutex
		frames []wireFrame
		wg     sync.WaitGroup
	)
	record := func(op byte, payload []byte) {
		mu.Lock()
		frames = append(frames, wireFrame{op, hex.EncodeToString(payload)})
		mu.Unlock()
	}
	pipe := func(src *bufio.Reader, dst *bufio.Writer) bool {
		op, payload, err := readFrame(src, anyOp(maxWireFrame))
		if err != nil {
			return false
		}
		record(op, payload)
		return writeFrame(dst, op, payload) == nil
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			srv, err := net.Dial("tcp", target)
			if err != nil {
				conn.Close()
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer conn.Close()
				defer srv.Close()
				cr, cw := bufio.NewReader(conn), bufio.NewWriter(conn)
				sr, sw := bufio.NewReader(srv), bufio.NewWriter(srv)
				for pipe(cr, sw) && pipe(sr, cw) {
				}
			}()
		}
	}()
	return ln.Addr().String(), func() []wireFrame {
		ln.Close()
		wg.Wait()
		return frames
	}
}

// TestWireGolden pins every control-plane payload, and the metrics and
// trace payloads the shutdown report carries, byte for byte: a real
// ClusterClient drives a real control server through a recording
// proxy, and each request and reply must equal the table, which holds
// whatever implements the codecs to the protocol-version-11 layout a
// qcworker of another build speaks. The handler's view of each request
// and the client's view of each reply are checked against the values
// encoded, so both directions of every payload are exercised.
func TestWireGolden(t *testing.T) {
	h := &goldenHandler{exit: make(chan struct{})}
	srv, err := serveControl("127.0.0.1:0", h, 1000)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.close()
	addr, stop := recordingProxy(t, srv.addr())

	// Every engine-config field off its default; the fault plan's one
	// directive acts on hosts only, so the client's frames are clean.
	cfg := Config{Machines: 2, WorkersPerMachine: 3, QueueCap: 64, BatchSize: 8, CacheCap: 1 << 10,
		StatusInterval: 2 * time.Millisecond, DisableGlobalQueue: true, Trace: true,
		FrameTimeout: 7 * time.Second, DeadAfterPolls: 9, FaultSpec: "5:kill=1@9"}
	c, err := joinCluster(cfg, []string{addr, addr}, 1000, 5000)
	if err != nil {
		t.Fatal(err)
	}
	const job = 0x0102030405060708
	if err := c.Run(1, job, []byte("spec-1")); err != nil {
		t.Fatal(err)
	}
	st, err := c.Status(1)
	if err != nil || st != goldenStatus {
		t.Fatalf("status reply decoded as %+v, %v", st, err)
	}
	if moved, err := c.Steal(1, 0, 5); err != nil || moved != 2 {
		t.Fatalf("steal reply decoded as %d, %v", moved, err)
	}
	rec := RecoverDirective{Dead: 2, Fallback: 1, Adopter: 0, Adopt: []int{2, 4}}
	if err := c.Recover(1, rec); err != nil {
		t.Fatal(err)
	}
	if rep, err := c.Shutdown(1); err != nil || !reflect.DeepEqual(rep, goldenReport) {
		t.Fatalf("shutdown reply decoded as %+v, %v", rep, err)
	}
	if err := c.Exit(1); err != nil {
		t.Fatal(err)
	}
	<-h.exit
	c.Close()
	frames := stop()

	// zeros is n counter rows left at zero.
	zeros := func(n int) string { return strings.Repeat("0000000000000000", n) }
	const (
		jobID = "0807060504030201"
		// machines, workers, queue, batch, cache, status interval,
		// flags (no global queue, trace), frame timeout, dead-after
		// polls, fault spec.
		engine = "02000000" + "03000000" + "40000000" + "08000000" + "00040000" + "80841e0000000000" +
			"03000000" + "00863ba101000000" + "0900000000000000" + "0a000000" + "353a6b696c6c3d314039"
	)
	// The peer table is the two addresses the client dialed: the
	// proxy's, twice.
	proxy := hex.EncodeToString(store.AppendU32(nil, uint32(len(addr)))) + hex.EncodeToString([]byte(addr))
	join := func(machine string) string {
		return "0b000000" + machine + engine + "e8030000" + "8813000000000000" + "02000000" + proxy + proxy
	}
	status := "01" + "0300000000000000" + "0200000000000000" + "0b00000000000000" + "0c00000000000000" + "2800000000000000" +
		"2800000000000000" + zeros(10) + "0000000002000000" + zeros(16) + "0700000000000000" +
		"09000000" + "6469736b2066756c6c"
	metrics := "002f685900000000" +
		zeros(3) + "0900000000000000" + zeros(18) + "0000000000010000" + zeros(6) +
		"02000000" + "404b4c0000000000" + "808d5b0000000000"
	trace := "4f545231" + "01000000" + "0300000000000000" + "01000000" +
		"04" + "01000000" + "ffffffff" + "15cd853dfe9c9717" + "c409000000000000" + "0000000000000000" + "2200000000000000"
	report := "0d000000" + "6f7574206f66206d656d6f7279" + metrics + "3d000000" + trace + "06000000" + "6f7061717565"
	want := []wireFrame{
		{opJoin, join("00000000")}, {opJoin, ""},
		{opJoin, join("01000000")}, {opJoin, ""},
		{opRun, jobID + "06000000737065632d31"}, {opRun, ""},
		{opStatus, jobID}, {opStatus, status},
		{opStealDo, jobID + "00000000" + "05000000"}, {opStealDo, "02000000"},
		{opRecover, "02000000" + "01000000" + "00000000" + "02000000" + "02000000" + "04000000"}, {opRecover, ""},
		{opShutdown, jobID}, {opShutdown, report},
		{opExit, ""}, {opExit, ""},
	}
	if len(frames) != len(want) {
		t.Fatalf("%d frames on the wire, want %d: %v", len(frames), len(want), frames)
	}
	for i := range want {
		if frames[i] != want[i] {
			t.Errorf("frame %d (op 0x%02x): got\n  %02x %s\nwant\n  %02x %s", i, want[i].op, frames[i].op, frames[i].hex, want[i].op, want[i].hex)
		}
	}

	wantSeen := []any{
		joinRequest{MachineID: 0, Config: cfg, NumVerts: 1000, NumEdges: 5000, Peers: []string{addr, addr}},
		joinRequest{MachineID: 1, Config: cfg, NumVerts: 1000, NumEdges: 5000, Peers: []string{addr, addr}},
		[]any{uint64(job), "spec-1"},
		uint64(job),
		[]any{uint64(job), 0, 5},
		rec,
		uint64(job),
	}
	if !reflect.DeepEqual(h.got, wantSeen) {
		t.Fatalf("handler decoded\n  %+v\nwant\n  %+v", h.got, wantSeen)
	}
}
