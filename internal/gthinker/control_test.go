package gthinker

import (
	"bytes"
	"io"
	"net"
	"reflect"
	"testing"
	"time"

	"gthinkerqc/internal/datagen"
	"gthinkerqc/internal/obs"
	"gthinkerqc/internal/store"
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
		var got MachineStatus
		if err := store.Decode(store.Encode(nil, st.walk), "status", got.walk); err != nil {
			t.Fatal(err)
		}
		if got != st {
			t.Fatalf("status round trip: %+v vs %+v", got, st)
		}
	}
	st := MachineStatus{Failure: "x"}
	data := store.Encode(nil, st.walk)
	for _, bad := range [][]byte{{}, {1, 2}, data[:len(data)-1], append(append([]byte{}, data...), 1)} {
		if err := store.Decode(bad, "status", new(MachineStatus).walk); err == nil {
			t.Fatalf("corrupt status reply of %d bytes accepted", len(bad))
		}
	}
}

func TestJoinRequestRoundTrip(t *testing.T) {
	r := joinRequest{MachineID: 2, Machines: 5, NumVerts: 1000, NumEdges: 5000,
		Peers: []string{"a:1", "b:2", "", "d:4", "e:5"}, Spec: []byte("spec-bytes")}
	var got joinRequest
	if err := store.Decode(store.Encode(nil, r.walk), "join request", got.walk); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, r) {
		t.Fatalf("join round trip: %+v", got)
	}
	// Wrong protocol version is refused.
	bad := store.Encode(nil, r.walk)
	bad[0] = 99
	if err := store.Decode(bad, "join request", got.walk); err == nil {
		t.Fatal("wrong protocol version accepted")
	}
}

func TestRecoverDirectiveRoundTrip(t *testing.T) {
	d := RecoverDirective{Dead: 3, Fallback: 1, Adopter: 1, Adopt: []int{3, 5, 7}}
	var got RecoverDirective
	if err := store.Decode(store.Encode(nil, d.walk), "recover directive", got.walk); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, d) {
		t.Fatalf("recover directive round trip: %+v vs %+v", got, d)
	}
	// Truncated and oversized payloads are rejected, not crash.
	data := store.Encode(nil, d.walk)
	for _, bad := range [][]byte{{}, data[:5], data[:len(data)-2], append(append([]byte{}, data...), 9)} {
		if err := store.Decode(bad, "recover directive", new(RecoverDirective).walk); err == nil {
			t.Fatalf("corrupt recover payload of %d bytes accepted", len(bad))
		}
	}
}

// controlPayloads is every control-plane payload decoded off a socket
// that has no fuzzer of its own (status and metrics have theirs), each
// with a non-default value to seed from. decode reads data as the
// receiver does and re-encodes what it accepted.
var controlPayloads = []struct {
	name   string
	seed   []byte
	decode func(data []byte) ([]byte, error)
}{
	{"join request", store.Encode(nil, (&joinRequest{MachineID: 1, Machines: 3, NumVerts: 9, NumEdges: 1 << 40,
		Peers: []string{"10.0.0.1:1", "", "10.0.0.3:3"}, Spec: []byte("QJS5")}).walk),
		walked("join request", func() func(*store.Walker) { return new(joinRequest).walk })},
	// The peer table's edges: none (a join the host refuses, but one
	// the decoder must read) and a cluster of eight.
	{"join request, no peers", store.Encode(nil, (&joinRequest{Machines: 1, NumVerts: 1}).walk),
		walked("join request", func() func(*store.Walker) { return new(joinRequest).walk })},
	{"join request, 8 peers", store.Encode(nil, (&joinRequest{MachineID: 7, Machines: 8, NumVerts: 1 << 20, NumEdges: 1 << 24,
		Peers: []string{"h0:9000", "h1:9000", "h2:9000", "h3:9000", "h4:9000", "h5:9000", "h6:9000", "[::1]:9000"}}).walk),
		walked("join request", func() func(*store.Walker) { return new(joinRequest).walk })},
	{"job request", store.Encode(nil, (&jobRequest{job: 7}).walk),
		walked("job request", func() func(*store.Walker) { return new(jobRequest).walk })},
	{"run request", store.Encode(nil, (&jobRequest{job: 8, spec: []byte("QJS3")}).walkRun),
		walked("run request", func() func(*store.Walker) { return new(jobRequest).walkRun })},
	{"steal directive", store.Encode(nil, (&jobRequest{job: 9, recv: 2, want: 32}).walkSteal),
		walked("steal directive", func() func(*store.Walker) { return new(jobRequest).walkSteal })},
	{"steal reply", store.Encode(nil, stealReply(ptr(5))),
		walked("steal reply", func() func(*store.Walker) { return stealReply(new(int)) })},
	{"recover directive", store.Encode(nil, (&RecoverDirective{Dead: 2, Fallback: 1, Adopter: 0, Adopt: []int{2, 4}}).walk),
		walked("recover directive", func() func(*store.Walker) { return new(RecoverDirective).walk })},
	{"trace", obs.AppendTrace(nil, &obs.Trace{Dropped: 3, Spans: []obs.Span{{Kind: obs.KindFetch, Pid: 1, Tid: -1, Start: 5, Dur: 6, Arg2: 34}}}),
		func(data []byte) ([]byte, error) {
			tr, err := obs.DecodeTrace(data)
			if err != nil {
				return nil, err
			}
			return obs.AppendTrace(nil, tr), nil
		}},
	// The report nests the metrics walk and the OTR1 trace inside its
	// own walk.
	{"shutdown reply", (&MachineReport{Failure: "disk full",
		Metrics: &Metrics{Wall: 7, Counters: Counters{ComputeCalls: 9}, WorkerBusy: []time.Duration{5, 6}},
		Trace:   &obs.Trace{Dropped: 1, Spans: []obs.Span{{Kind: obs.KindCompute, Pid: 2, Tid: 1, Start: 5, Dur: 6, Arg1: 3}}},
		Results: []byte("QRS3")}).encode(),
		func(data []byte) ([]byte, error) {
			rep, err := decodeReport(data)
			if err != nil {
				return nil, err
			}
			return rep.encode(), nil
		}},
}

func ptr[T any](v T) *T { return &v }

// walked decodes through the walk fresh returns, then re-encodes
// through the same walk, now bound to what was decoded.
func walked(what string, fresh func() func(*store.Walker)) func([]byte) ([]byte, error) {
	return func(data []byte) ([]byte, error) {
		walk := fresh()
		if err := store.Decode(data, what, walk); err != nil {
			return nil, err
		}
		return store.Encode(nil, walk), nil
	}
}

// TestControlPayloadsRefuseDamage: every control payload decodes its
// seed back to the same bytes and refuses each truncation of it and
// the seed with a byte appended.
func TestControlPayloadsRefuseDamage(t *testing.T) {
	for _, p := range controlPayloads {
		if re, err := p.decode(p.seed); err != nil || !bytes.Equal(re, p.seed) {
			t.Fatalf("%s: seed re-encodes to %x, %v", p.name, re, err)
		}
		for cut := 0; cut < len(p.seed); cut++ {
			if _, err := p.decode(p.seed[:cut]); err == nil {
				t.Fatalf("%s: %d of %d bytes accepted", p.name, cut, len(p.seed))
			}
		}
		if _, err := p.decode(append(append([]byte{}, p.seed...), 0)); err == nil {
			t.Fatalf("%s: trailing byte accepted", p.name)
		}
	}
}

// FuzzControlPayloads feeds arbitrary bytes to the control payloads'
// decoders, the first byte picking which: garbage is an error — never a
// panic or an allocation past the bytes present — and whatever a
// decoder accepts re-encodes to the same bytes.
func FuzzControlPayloads(f *testing.F) {
	for i, p := range controlPayloads {
		tag := []byte{byte(i)}
		f.Add(append(tag, p.seed...))
		f.Add(append(tag, p.seed[:len(p.seed)-1]...))
		f.Add(append(append(tag, p.seed...), 0))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		p := controlPayloads[int(data[0])%len(controlPayloads)]
		re, err := p.decode(data[1:])
		if err == nil && !bytes.Equal(re, data[1:]) {
			t.Fatalf("%s: accepted %x, re-encodes to %x", p.name, data[1:], re)
		}
	})
}

func exitTestHost(t *testing.T) *WorkerHost {
	t.Helper()
	h, err := StartWorkerHost(WorkerHostConfig{Graph: datagen.ErdosRenyi(10, 0.2, 1), NewApp: func([]byte, int) (App, Config, error) {
		return nilApp{}, Config{}, nil
	}, Results: noResults})
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
		cc := &ClusterClient{pool: newConnPool([]string{h.Addr()})}
		err := cc.Exit(0)
		cc.Close()
		<-closed
		if err != nil {
			t.Fatalf("exit %d: %v", i, err)
		}
	}
}
