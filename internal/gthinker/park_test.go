package gthinker

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"gthinkerqc/internal/datagen"
	"gthinkerqc/internal/graph"
)

// parkTimeout is how long a wake-up may take before a test calls it
// lost. A wake is a channel send; seconds mean it never came.
const parkTimeout = 10 * time.Second

// countApp computes whatever reaches it and reports each Compute on a
// channel. Spawn hands out one small task per vertex of spawn (nil:
// no vertex spawns).
type countApp struct {
	toyCodec
	spawn    func(v graph.V) bool
	computed chan struct{}
}

func newCountApp(spawn func(v graph.V) bool) *countApp {
	return &countApp{spawn: spawn, computed: make(chan struct{}, 1<<16)}
}

func (a *countApp) Spawn(v graph.V, _ []graph.V, _ *Ctx) *Task {
	if a.spawn == nil || !a.spawn(v) {
		return nil
	}
	return NewTask([]graph.V{v})
}

func (a *countApp) Compute(*Task, [][]graph.V, *Ctx) bool {
	a.computed <- struct{}{}
	return false
}

func (a *countApp) IsBig(*Task) bool { return true }

// awaitComputed waits for n Compute calls.
func (a *countApp) awaitComputed(t *testing.T, n int, what string) {
	t.Helper()
	deadline := time.After(parkTimeout)
	for i := 0; i < n; i++ {
		select {
		case <-a.computed:
		case <-deadline:
			t.Fatalf("%s: %d of %d tasks computed; a parked worker was not woken", what, i, n)
		}
	}
}

// startParked puts machine m of c onto a job running app, starts its
// workers, and returns once every one of them has parked: the spawn
// scan is over and nothing is queued.
func startParked(t *testing.T, c *Cluster, m int, app App) (*MachineRuntime, *jobState) {
	t.Helper()
	rt := c.hosts[m].Runtime()
	if err := rt.ResetJob(app, 0); err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Stop)
	jb := rt.jb()
	awaitParked(t, rt, jb)
	return rt, jb
}

func awaitParked(t *testing.T, rt *MachineRuntime, jb *jobState) {
	t.Helper()
	deadline := time.Now().Add(parkTimeout)
	for int(jb.sleepers.Load()) != len(rt.workers) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d workers parked", jb.sleepers.Load(), len(rt.workers))
		}
		runtime.Gosched()
	}
}

// TestParkedWorkerWokenBySteal: a batch landing through DeliverTasks —
// what a host's opTaskSteal answer calls, over a socket or a loopback —
// reaches workers that had parked on an empty machine.
func TestParkedWorkerWokenBySteal(t *testing.T) {
	g := datagen.ErdosRenyi(40, 0.1, 3)
	c := testCluster(t, g, Config{Machines: 2, WorkersPerMachine: 2, SpillDir: t.TempDir()})
	app := newCountApp(nil)
	rt, jb := startParked(t, c.Cluster, 1, app)
	if !rt.quiescent(jb) {
		t.Fatal("a machine that spawned nothing is not quiescent")
	}
	for round := 1; round <= 3; round++ {
		rt.DeliverTasks([]*Task{NewTask([]graph.V{1}), NewTask([]graph.V{2}), NewTask([]graph.V{3})})
		app.awaitComputed(t, 3, "stolen batch")
		awaitParked(t, rt, jb)
		if got := jb.recvIn.Load(); got != uint64(3*round) {
			t.Fatalf("recvIn = %d after %d batches", got, round)
		}
	}
}

// TestParkedWorkerWokenByAdopt: the survivor of a lost peer has drained
// its own partition and parked; the recovery directive that hands it
// the dead machine's partition must put its workers back on the spawn
// scan.
func TestParkedWorkerWokenByAdopt(t *testing.T) {
	g := datagen.ErdosRenyi(60, 0.1, 5)
	c := testCluster(t, g, Config{Machines: 2, WorkersPerMachine: 2, SpillDir: t.TempDir()})
	app := newCountApp(func(graph.V) bool { return true })
	rt, jb := startParked(t, c.Cluster, 0, app)
	own := len(ownedVertices(g.NumVertices(), 2, 0))
	app.awaitComputed(t, own, "own partition")

	if err := rt.RecoverPeer(RecoverDirective{Dead: 1, Fallback: 0, Adopter: 0, Adopt: []int{1}}); err != nil {
		t.Fatal(err)
	}
	app.awaitComputed(t, g.NumVertices()-own, "adopted partition")
	awaitParked(t, rt, jb)
	if st := rt.Status(); !st.AllSpawned || st.Live != 0 || st.Spawned != int64(g.NumVertices()) {
		t.Fatalf("after adoption: %+v", st)
	}
}

// TestParkedWorkerReleasedByStopAndFail: parked workers hold no timer,
// so ending the job must reach them directly — Stop and fail both
// return with the workers joined — and a status reply held for a busy
// machine must go out with the failure instead of waiting out its
// hold.
func TestParkedWorkerReleasedByStopAndFail(t *testing.T) {
	g := datagen.ErdosRenyi(40, 0.1, 3)
	for _, end := range []string{"stop", "fail"} {
		t.Run(end, func(t *testing.T) {
			c := testCluster(t, g, Config{
				Machines: 1, WorkersPerMachine: 3, SpillDir: t.TempDir(),
				// A held reply that is not released never returns.
				StatusInterval: time.Hour, FrameTimeout: -1,
			})
			rt, jb := startParked(t, c.Cluster, 0, newCountApp(nil))
			jb.live.Add(1) // a task that never finishes: the machine stays busy
			status := make(chan MachineStatus, 1)
			go func() {
				st, _ := c.hosts[0].handleStatus(0)
				status <- st
			}()
			joined := make(chan struct{})
			go func() {
				if end == "fail" {
					rt.fail(errors.New("synthetic failure"))
					jb.workerWG.Wait()
				} else {
					rt.Stop()
				}
				close(joined)
			}()
			select {
			case <-joined:
			case <-time.After(parkTimeout):
				t.Fatalf("%s did not release the parked workers", end)
			}
			select {
			case st := <-status:
				if (st.Failure != "") != (end == "fail") {
					t.Fatalf("status after %s carries failure %q", end, st.Failure)
				}
			case <-time.After(parkTimeout):
				t.Fatalf("%s did not release the held status reply", end)
			}
		})
	}
}

// blockApp spawns one small task per vertex and holds every Compute
// until the job is aborted.
type blockApp struct {
	nilApp
	running atomic.Int64
}

func (a *blockApp) Spawn(v graph.V, _ []graph.V, _ *Ctx) *Task { return NewTask([]graph.V{v}) }

func (a *blockApp) Compute(_ *Task, _ [][]graph.V, ctx *Ctx) bool {
	a.running.Add(1)
	for !ctx.Aborted() {
		runtime.Gosched()
	}
	return false
}

// TestParkedWorkerReleasedByCancel: one worker computes forever, the
// others found nothing and parked; cancelling the job must bring
// RunJob back with every worker joined.
func TestParkedWorkerReleasedByCancel(t *testing.T) {
	g := graph.NewBuilder(1).MustBuild() // one root: one worker busy, three parked
	c := testCluster(t, g, Config{Machines: 1, WorkersPerMachine: 4, SpillDir: t.TempDir()})
	app := &blockApp{}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.run(ctx, app)
		done <- err
	}()
	rt := c.hosts[0].Runtime()
	deadline := time.Now().Add(parkTimeout)
	for app.running.Load() == 0 || rt.jb().sleepers.Load() != 3 {
		if time.Now().After(deadline) {
			t.Fatalf("running=%d parked=%d, want 1 and 3", app.running.Load(), rt.jb().sleepers.Load())
		}
		runtime.Gosched()
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(parkTimeout):
		t.Fatal("cancel did not end a job with parked workers")
	}
}

// TestParkSeesTaskBehindMissedTryLock pins the two orders in which a
// push can meet a worker on its way to sleep. The pop path only
// try-locks Qglobal, so a worker can miss a task another thread is
// just pushing, find nothing else, and head for park:
//
//   - the push completed first and — no sleeper registered yet — sent
//     no token: park's own look at the queue (a blocking read, after
//     registering) must see the task and return without blocking;
//   - the worker registered first and blocked: the push sees the
//     sleeper and its token wakes it.
func TestParkSeesTaskBehindMissedTryLock(t *testing.T) {
	g := datagen.ErdosRenyi(20, 0.1, 3)
	c := testCluster(t, g, Config{Machines: 1, WorkersPerMachine: 1, SpillDir: t.TempDir()})
	rt := installJob(t, c.Cluster, nilApp{})[0]
	jb, w := rt.jb(), rt.workers[0]
	jb.spawnCursor.Store(int64(len(rt.verts))) // the spawn scan is over

	parked := func() chan struct{} {
		ch := make(chan struct{})
		go func() {
			w.park(jb)
			close(ch)
		}()
		return ch
	}
	mustReturn := func(ch chan struct{}, what string) {
		t.Helper()
		select {
		case <-ch:
		case <-time.After(parkTimeout):
			t.Fatalf("%s: park did not return", what)
		}
	}

	jb.pushGlobal(NewTask([]graph.V{1})) // nobody sleeps: no token
	if len(jb.wakeCh) != 0 {
		t.Fatal("a push with no sleeper left a token behind")
	}
	mustReturn(parked(), "task queued before the worker registered")

	if jb.qglobal.popFront() == nil {
		t.Fatal("queued task vanished")
	}
	ch := parked()
	for jb.sleepers.Load() != 1 {
		runtime.Gosched()
	}
	select {
	case <-ch:
		t.Fatal("park returned with nothing queued")
	default:
	}
	jb.pushGlobal(NewTask([]graph.V{2}))
	mustReturn(ch, "task queued after the worker blocked")
	if n := jb.sleepers.Load(); n != 0 {
		t.Fatalf("%d sleepers registered after park returned", n)
	}
}

// TestNoLostWakeUnderContention feeds one machine single tasks from
// several producers while its workers race each other for the
// try-lock, park between arrivals, and get woken again. A lost wake-up
// strands a task behind sleeping workers, so the test ends only if
// every task is computed.
func TestNoLostWakeUnderContention(t *testing.T) {
	g := datagen.ErdosRenyi(20, 0.1, 3)
	c := testCluster(t, g, Config{Machines: 1, WorkersPerMachine: 4, SpillDir: t.TempDir()})
	app := newCountApp(nil)
	rt, jb := startParked(t, c.Cluster, 0, app)
	const producers, each = 4, 500
	for p := 0; p < producers; p++ {
		go func(p int) {
			for i := 0; i < each; i++ {
				rt.DeliverTasks([]*Task{NewTask([]graph.V{graph.V(p), graph.V(i)})})
				if i%7 == 0 {
					runtime.Gosched() // let the workers drain and park
				}
			}
		}(p)
	}
	app.awaitComputed(t, producers*each, "contended single-task pushes")
	awaitParked(t, rt, jb)
	if !rt.quiescent(jb) {
		t.Fatalf("live = %d after every task was computed", jb.live.Load())
	}
}

// TestThousandShortJobsOneCluster runs 1 000 small jobs back to back on
// one cluster, direct and over sockets: every job's workers must park,
// wake for termination and exit — no job may hang, and the process may
// not be left with more goroutines than it started with.
func TestThousandShortJobsOneCluster(t *testing.T) {
	g := datagen.ErdosRenyi(10, 0.3, 1)
	for _, tcp := range []bool{false, true} {
		name := "direct"
		if tcp {
			name = "sockets"
		}
		t.Run(name, func(t *testing.T) {
			c := testCluster(t, g, Config{Machines: 2, WorkersPerMachine: 2, SpillDir: t.TempDir(), InProcessTCP: tcp})
			run := func(jobs int) {
				for i := 0; i < jobs; i++ {
					app := &fanApp{spawnDepth: 2, fanout: 2}
					ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
					_, err := c.run(ctx, app)
					cancel()
					if err != nil {
						t.Fatalf("job %d: %v", i, err)
					}
					if got := app.computed.Load(); got != 10*7 {
						t.Fatalf("job %d computed %d tasks, want 70", i, got)
					}
				}
			}
			run(10) // connections dialed, heap sampler settled
			before := runtime.NumGoroutine()
			run(1000)
			// A goroutine on its way out may still be counted for an
			// instant; a leak of one per job would show as ~1 000.
			deadline := time.Now().Add(parkTimeout)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				runtime.Gosched()
			}
			if after := runtime.NumGoroutine(); after > before {
				t.Fatalf("%d goroutines before 1000 jobs, %d after", before, after)
			}
		})
	}
}
