package gthinker

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gthinkerqc/internal/datagen"
	"gthinkerqc/internal/graph"
)

func TestConfigTotalWorkers(t *testing.T) {
	if got := (Config{}).TotalWorkers(); got != 1 {
		t.Fatalf("defaults = %d", got)
	}
	if got := (Config{Machines: 4, WorkersPerMachine: 8}).TotalWorkers(); got != 32 {
		t.Fatalf("4x8 = %d", got)
	}
}

func TestMetricsHelpers(t *testing.T) {
	m := &Metrics{WorkerBusy: []time.Duration{time.Second, 3 * time.Second}}
	if m.TotalBusy() != 4*time.Second {
		t.Fatalf("TotalBusy = %v", m.TotalBusy())
	}
	if got := m.BusyImbalance(); got != 1.5 {
		t.Fatalf("BusyImbalance = %v", got)
	}
	if s := m.String(); !strings.Contains(s, "imbalance") {
		t.Fatalf("String = %q", s)
	}
	// Edge cases.
	empty := &Metrics{}
	if empty.BusyImbalance() != 1 {
		t.Fatal("empty imbalance")
	}
	zero := &Metrics{WorkerBusy: []time.Duration{0, 0}}
	if zero.BusyImbalance() != 1 {
		t.Fatal("zero-busy imbalance")
	}
}

func TestStealRoundDirect(t *testing.T) {
	g := datagen.ErdosRenyi(10, 0.2, 1)
	c := testCluster(t, g, Config{Machines: 2, WorkersPerMachine: 1, SpillDir: t.TempDir()})
	rts := installJob(t, c.Cluster, &nilApp{})
	co := newCoordinator(c.ctl, c.cfg)
	// Load machine 0 with 10 big tasks; machine 1 has none.
	for i := 0; i < 10; i++ {
		rts[0].jb().pushGlobal(NewTask(nil))
	}
	stealNow(t, co)
	m0, m1 := rts[0].jb().qglobal.len(), rts[1].jb().qglobal.len()
	if m1 == 0 {
		t.Fatalf("no tasks stolen: %d / %d", m0, m1)
	}
	if m0+m1 != 10 {
		t.Fatalf("tasks lost in stealing: %d + %d", m0, m1)
	}
	if co.counts.TasksStolen == 0 || co.counts.StealRounds == 0 {
		t.Fatal("steal counters not updated")
	}
	// Balanced queues: nothing moves.
	before := co.counts.TasksStolen
	stealNow(t, co)
	stealNow(t, co)
	after := co.counts.TasksStolen
	if after-before > uint64(m0+m1) {
		t.Fatalf("stealing thrashes on balanced queues: %d moved", after-before)
	}
	// Empty queues: no-op.
	c2 := testCluster(t, g, Config{Machines: 2, SpillDir: t.TempDir()})
	installJob(t, c2.Cluster, &nilApp{})
	co2 := newCoordinator(c2.ctl, c2.cfg)
	stealNow(t, co2)
	if co2.counts.TasksStolen != 0 {
		t.Fatal("stole from empty cluster")
	}
}

func TestEngineRunContextCancelled(t *testing.T) {
	g := datagen.ErdosRenyi(50, 0.3, 2)
	// Deep fan-out keeps the engine busy long enough to cancel.
	// Tiny queues make both machines spill, so the abort strands files.
	app := &fanApp{spawnDepth: 6, fanout: 4}
	c := testCluster(t, g, Config{
		Machines: 2, WorkersPerMachine: 2, QueueCap: 4, BatchSize: 2, SpillDir: t.TempDir(),
	})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	res, err := c.run(ctx, app)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if res == nil || res.Metrics == nil {
		t.Fatal("a cancelled job must still report what it gathered")
	}
	// The job itself sweeps what it stranded, on every machine, so the
	// next job's process-wide spill peak starts from an empty disk.
	if res.Metrics.SpillBytesWritten == 0 {
		t.Fatal("the job did not spill; the sweep is not exercised")
	}
	if cur := c.disk.current.Load(); cur != 0 {
		t.Fatalf("%d spill bytes still accounted after an aborted job", cur)
	}
}

// failingTransport errors on every fetch: the engine must surface the
// error and terminate rather than hang.
type failingTransport struct{ *loopback }

func (f failingTransport) FetchAdjBatch(int, []graph.V, [][]graph.V) ([][]graph.V, error) {
	return nil, errors.New("synthetic transport failure")
}

func TestEngineTransportFailure(t *testing.T) {
	g := datagen.ErdosRenyi(100, 0.1, 3)
	app := &triApp{g: g}
	c, err := newTestCluster(g, Config{
		Machines: 3, WorkersPerMachine: 1, SpillDir: t.TempDir(),
	}, func(_ int, lb *loopback) Transport { return failingTransport{lb} })
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	done := make(chan struct{})
	var runErr error
	go func() {
		_, runErr = c.run(context.Background(), app)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("engine hung on transport failure")
	}
	if runErr == nil {
		t.Fatal("transport failure not surfaced")
	}
}

func TestVertexServerMalformedRequest(t *testing.T) {
	g := datagen.ErdosRenyi(10, 0.3, 1)
	srv, err := ServeVertexTable("127.0.0.1:0", g)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tr := NewTCPTransport([]string{srv.Addr()}, g.NumVertices())
	defer tr.Close()
	// Out-of-range vertex: the server answers with an explicit opError
	// frame naming the problem — not a silently dropped connection
	// that the client reports as a bare EOF.
	_, err = fetchOne(tr, 0, 9999)
	if err == nil {
		t.Fatal("out-of-range fetch succeeded")
	}
	if !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("error does not carry the server's message: %v", err)
	}
	// The transport recovers with a fresh connection afterwards.
	adj, err := fetchOne(tr, 0, 3)
	if err != nil {
		t.Fatalf("recovery fetch failed: %v", err)
	}
	if len(adj) != g.Degree(3) {
		t.Fatalf("recovery fetch wrong: %v", adj)
	}
}

func TestCtxAborted(t *testing.T) {
	var flag atomic.Bool
	c := Ctx{aborted: flag.Load}
	if c.Aborted() {
		t.Fatal("aborted before set")
	}
	flag.Store(true)
	if !c.Aborted() {
		t.Fatal("abort not observed")
	}
	var zero Ctx
	if zero.Aborted() {
		t.Fatal("zero Ctx aborted")
	}
}
