package gthinker

import (
	"io"
	"net"
	"reflect"
	"testing"

	"gthinkerqc/internal/datagen"
)

func TestStatusWireRoundTrip(t *testing.T) {
	for _, st := range []MachineStatus{
		{},
		{AllSpawned: true, Live: 42, BigPending: 7, SentOut: 3, RecvIn: 9, Spawned: 4711},
		// The counter snapshot piggybacked on the poll: losing any row
		// would freeze that series in the coordinator's live view.
		{AllSpawned: true, Live: 1, BigPending: 2, SentOut: 3, RecvIn: 4, Spawned: 5, Counters: distinctCounters(6)},
		{AllSpawned: true, Failure: "machine on fire"},
	} {
		got, err := decodeStatus(appendStatus(nil, st))
		if err != nil {
			t.Fatal(err)
		}
		if got != st {
			t.Fatalf("status round trip: %+v vs %+v", got, st)
		}
	}
	data := appendStatus(nil, MachineStatus{Failure: "x"})
	for _, bad := range [][]byte{{}, {1, 2}, data[:len(data)-1], append(append([]byte{}, data...), 1)} {
		if _, err := decodeStatus(bad); err == nil {
			t.Fatalf("corrupt status reply of %d bytes accepted", len(bad))
		}
	}
}

func TestJoinRequestRoundTrip(t *testing.T) {
	r := joinRequest{MachineID: 2, Machines: 5, NumVerts: 1000, NumEdges: 5000, Spec: []byte("spec-bytes")}
	got, err := decodeJoinRequest(appendJoinRequest(nil, r))
	if err != nil {
		t.Fatal(err)
	}
	if got.MachineID != 2 || got.Machines != 5 || got.NumVerts != 1000 ||
		got.NumEdges != 5000 || string(got.Spec) != "spec-bytes" {
		t.Fatalf("join round trip: %+v", got)
	}
	// Wrong protocol version is refused.
	bad := appendJoinRequest(nil, r)
	bad[0] = 99
	if _, err := decodeJoinRequest(bad); err == nil {
		t.Fatal("wrong protocol version accepted")
	}
}

func TestRecoverDirectiveRoundTrip(t *testing.T) {
	d := RecoverDirective{Dead: 3, Fallback: 1, Adopter: 1, Adopt: []int{3, 5, 7}}
	got, err := decodeRecover(appendRecover(nil, d))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, d) {
		t.Fatalf("recover directive round trip: %+v vs %+v", got, d)
	}
	// Truncated and oversized payloads are rejected, not crash.
	data := appendRecover(nil, d)
	for _, bad := range [][]byte{{}, data[:5], data[:len(data)-2], append(append([]byte{}, data...), 9)} {
		if _, err := decodeRecover(bad); err == nil {
			t.Fatalf("corrupt recover payload of %d bytes accepted", len(bad))
		}
	}
}

func TestAddrTableRoundTrip(t *testing.T) {
	v := []string{"a:1", "b:2", "c:3"}
	ta := []string{"a:4", "", "c:6"}
	gv, gt, err := decodeAddrTable(appendAddrTable(nil, v, ta))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gv, v) || !reflect.DeepEqual(gt, ta) {
		t.Fatalf("addr table round trip: %v %v", gv, gt)
	}
	if _, _, err := decodeAddrTable([]byte{255, 255, 255, 255}); err == nil {
		t.Fatal("absurd machine count accepted")
	}
}

func exitTestHost(t *testing.T) *WorkerHost {
	t.Helper()
	h, err := StartWorkerHost(WorkerHostConfig{Graph: datagen.ErdosRenyi(10, 0.2, 1), NewApp: func([]byte, int) (App, Config, error) {
		return nilApp{}, Config{}, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestExitReleasedAfterAck pins the order the opExit handler must keep:
// acknowledge, then release WaitExit. A worker process's main goroutine
// answers WaitExit with Close, which tears the control connection down;
// released first, it can cut the connection under the ack and the
// coordinator reports "exit machine 1: EOF" for a worker that obeyed.
// A synchronous pipe makes the order observable: its writer stays
// inside Write until the reader has taken every byte, so after one
// byte of the ack the server is provably still writing it.
func TestExitReleasedAfterAck(t *testing.T) {
	h := exitTestHost(t)
	defer h.Close()
	client, server := net.Pipe()
	defer client.Close()
	served := make(chan struct{})
	go func() {
		h.ctl.handle(server)
		close(served)
	}()
	defer func() {
		server.Close()
		<-served
	}()

	if _, err := client.Write([]byte{opExit, 0, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	ack := make([]byte, frameHeaderLen)
	if _, err := io.ReadFull(client, ack[:1]); err != nil {
		t.Fatal(err)
	}
	select {
	case <-h.exitCh:
		t.Fatal("WaitExit was released while the opExit ack was still being written")
	default:
	}
	if _, err := io.ReadFull(client, ack[1:]); err != nil {
		t.Fatal(err)
	}
	if ack[0] != opExit {
		t.Fatalf("reply op 0x%02x to opExit", ack[0])
	}
	h.WaitExit() // hangs (and the test times out) if the ack does not release it
}

// TestExitAckSurvivesHostClose is the same contract end to end, over
// real sockets: 200 hosts whose main goroutine does WaitExit(); Close()
// must all acknowledge their exit.
func TestExitAckSurvivesHostClose(t *testing.T) {
	for i := 0; i < 200; i++ {
		h := exitTestHost(t)
		closed := make(chan struct{})
		go func() {
			h.WaitExit()
			h.Close()
			close(closed)
		}()
		cc := &ClusterClient{pool: newConnPool([]string{h.ControlAddr()})}
		err := cc.Exit(0)
		cc.Close()
		<-closed
		if err != nil {
			t.Fatalf("exit %d: %v", i, err)
		}
	}
}
