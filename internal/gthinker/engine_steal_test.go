package gthinker

import (
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gthinkerqc/internal/datagen"
	"gthinkerqc/internal/graph"
	"gthinkerqc/internal/store"
)

// TestStealRefillsFromSpilledBacklog is the regression test for the
// steal-master stall: a donor whose big tasks all sit in spill files
// (bigPending counts them) used to donate nothing because the steal
// round drained only the in-memory queue — receivers starved while the
// donor paid refill I/O alone.
func TestStealRefillsFromSpilledBacklog(t *testing.T) {
	g := datagen.ErdosRenyi(10, 0.2, 1)
	c := testCluster(t, g, Config{
		Machines: 2, WorkersPerMachine: 1,
		QueueCap: 8, BatchSize: 4, SpillDir: t.TempDir(),
	})
	rts := installJob(t, c.Cluster, nilApp{})
	co := newCoordinator(c.ctl, c.cfg)
	// Machine 0's entire backlog is on disk, as after QueueCap
	// overflow: two spilled batches, an empty queue.
	mkTasks := func(n int) []*Task {
		ts := make([]*Task, n)
		for i := range ts {
			ts[i] = NewTask([]graph.V{graph.V(i)})
		}
		return ts
	}
	if err := rts[0].jb().lbig.spill(mkTasks(4)); err != nil {
		t.Fatal(err)
	}
	if err := rts[0].jb().lbig.spill(mkTasks(4)); err != nil {
		t.Fatal(err)
	}
	if rts[0].jb().qglobal.len() != 0 || rts[0].bigPending() != 8 {
		t.Fatalf("setup wrong: queue=%d pending=%d",
			rts[0].jb().qglobal.len(), rts[0].bigPending())
	}

	stealNow(t, co)

	if got := rts[1].jb().qglobal.len(); got == 0 {
		t.Fatal("spilled backlog donated nothing")
	}
	if co.counts.TasksStolen == 0 {
		t.Fatal("steal counter not updated")
	}
	// Nothing was lost: queued tasks plus tasks still on disk cover
	// the original eight.
	remaining := rts[0].jb().qglobal.len() + rts[0].jb().lbig.count() +
		rts[1].jb().qglobal.len()
	if remaining != 8 {
		t.Fatalf("tasks lost in spill-backed steal: %d of 8 remain", remaining)
	}
}

// TestStealFromPartialRefill: a refilled batch larger than the steal
// request leaves the excess on the donor's queue, not on the floor.
func TestStealFromPartialRefill(t *testing.T) {
	g := datagen.ErdosRenyi(10, 0.2, 1)
	c := testCluster(t, g, Config{
		Machines: 2, WorkersPerMachine: 1,
		QueueCap: 8, BatchSize: 8, SpillDir: t.TempDir(),
	})
	rts := installJob(t, c.Cluster, nilApp{})
	ts := make([]*Task, 6)
	for i := range ts {
		ts[i] = NewTask([]graph.V{graph.V(i)})
	}
	if err := rts[0].jb().lbig.spill(ts); err != nil {
		t.Fatal(err)
	}
	moved, err := rts[0].StealTo(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if moved != 2 || rts[1].jb().qglobal.len() != 2 {
		t.Fatalf("moved %d tasks, receiver holds %d, want 2 and 2", moved, rts[1].jb().qglobal.len())
	}
	if got := rts[0].jb().qglobal.len(); got != 4 {
		t.Fatalf("refill excess lost: %d queued, want 4", got)
	}
	if rts[0].jb().lbig.count() != 0 {
		t.Fatal("spill file not consumed")
	}
}

// TestStealRoundShipsRemote drives one steal round over the in-process
// TCP control plane — the coordinator's directive goes to the donor's
// control server, the donor ships the batch as GQS1 bytes to the
// receiver's TaskServer — and checks the batch really crossed the
// wire: the receiving machine's queue holds decoded equivalents, not
// the sender's Task pointers.
func TestStealRoundShipsRemote(t *testing.T) {
	g := datagen.ErdosRenyi(10, 0.2, 1)
	c := testCluster(t, g, Config{
		Machines: 2, WorkersPerMachine: 1,
		SpillDir: t.TempDir(), InProcessTCP: true,
	})
	rts := installJob(t, c.Cluster, nilApp{})
	co := newCoordinator(c.ctl, c.cfg)
	if _, ok := c.ctl.(*ClusterClient); !ok {
		t.Fatalf("in-process TCP control plane is %T, want *ClusterClient", c.ctl)
	}
	orig := make(map[uint64]*Task, 10)
	for i := 0; i < 10; i++ {
		tk := NewTask([]graph.V{graph.V(i), graph.V(i * 2)})
		tk.Pulls = []graph.V{graph.V(9 - i)} // in range: the receiver refuses others
		orig[tk.ID] = tk
		rts[0].jb().pushGlobal(tk)
	}

	stealNow(t, co)

	got := rts[1].jb().qglobal.popBackBatch(100)
	if len(got) == 0 {
		t.Fatal("receiver got nothing")
	}
	for _, tk := range got {
		want, ok := orig[tk.ID]
		if !ok {
			t.Fatalf("received unknown task %d", tk.ID)
		}
		if tk == want {
			t.Fatal("received the sender's pointer: batch never crossed the wire")
		}
		if tk.Pulls[0] != want.Pulls[0] {
			t.Fatalf("task %d pulls corrupted: %v vs %v", tk.ID, tk.Pulls, want.Pulls)
		}
		p, q := tk.Payload.([]graph.V), want.Payload.([]graph.V)
		if len(p) != len(q) || p[0] != q[0] || p[1] != q[1] {
			t.Fatalf("task %d payload corrupted: %v vs %v", tk.ID, p, q)
		}
	}
	if rts[1].jb().recvIn.Load() != uint64(len(got)) || rts[0].jb().sentOut.Load() != uint64(len(got)) {
		t.Fatalf("transfer counters wrong: sentOut=%d recvIn=%d moved=%d",
			rts[0].jb().sentOut.Load(), rts[1].jb().recvIn.Load(), len(got))
	}
}

// TestHandleTasksRefusesPullPastGraph: a steal frame naming a pull past
// |V| is answered with an error and delivers nothing. Unchecked, a pull
// whose hash owner is the receiver reached g.Adj in resolve and
// panicked the receiving worker.
func TestHandleTasksRefusesPullPastGraph(t *testing.T) {
	g := datagen.ErdosRenyi(10, 0.2, 1)
	c := testCluster(t, g, Config{Machines: 2, WorkersPerMachine: 1, SpillDir: t.TempDir()})
	rts := installJob(t, c.Cluster, nilApp{})
	good, bad := NewTask([]graph.V{1, 2}), NewTask([]graph.V{3, 4})
	good.Pulls = []graph.V{9}
	bad.Pulls = []graph.V{5, 100000}
	var enc store.BatchEncoder
	data, err := encodeTaskBatch(&enc, []*Task{good, bad}, nilApp{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.hosts[1].handleTasks(data); err == nil {
		t.Fatal("a pull past |V| was delivered")
	}
	if n := rts[1].jb().qglobal.len(); n != 0 {
		t.Fatalf("receiver queued %d tasks of a refused batch", n)
	}
}

// TestStealReownedAfterPeerLoss: a batch a steal round shipped is kept
// by its donor, so when the receiver dies before running it the donor
// re-owns every task — over direct calls exactly as over sockets.
func TestStealReownedAfterPeerLoss(t *testing.T) {
	for _, tc := range []struct {
		name string
		tcp  bool
	}{{"direct", false}, {"tcp", true}} {
		t.Run(tc.name, func(t *testing.T) {
			g := datagen.ErdosRenyi(10, 0.2, 1)
			c := testCluster(t, g, Config{
				Machines: 2, WorkersPerMachine: 1,
				SpillDir: t.TempDir(), InProcessTCP: tc.tcp,
			})
			rts := installJob(t, c.Cluster, nilApp{})
			co := newCoordinator(c.ctl, c.cfg)
			want := make(map[uint64]bool, 10)
			for i := 0; i < 10; i++ {
				tk := NewTask([]graph.V{graph.V(i)})
				want[tk.ID] = true
				rts[0].jb().pushGlobal(tk)
			}

			stealNow(t, co)

			sent := rts[1].jb().qglobal.len()
			if sent == 0 {
				t.Fatal("the steal round moved nothing")
			}
			if err := rts[0].RecoverPeer(RecoverDirective{Dead: 1, Fallback: 0, Adopter: 0, Adopt: []int{1}}); err != nil {
				t.Fatal(err)
			}
			got := rts[0].jb().qglobal.popBackBatch(100)
			for _, tk := range got {
				if !want[tk.ID] {
					t.Fatalf("task %d is not one of the ten, or is held twice", tk.ID)
				}
				delete(want, tk.ID)
			}
			if len(want) != 0 {
				t.Fatalf("machine 0 re-owned %d of the %d tasks machine 1 received", sent-len(want), sent)
			}
		})
	}
}

// TestPlanSteals pins the master's one steal rule on hand-made scans.
func TestPlanSteals(t *testing.T) {
	busy := func(pending int64) MachineStatus { return MachineStatus{Live: pending + 1, BigPending: pending} }
	idle := MachineStatus{AllSpawned: true}
	for _, tc := range []struct {
		name  string
		sts   []MachineStatus
		dead  []int
		batch int
		want  []stealDirective
	}{
		{"one task behind a busy donor feeds a quiescent peer", []MachineStatus{busy(1), idle}, nil, 32,
			[]stealDirective{{donor: 0, recv: 1, want: 1}}},
		{"one task does not move to a busy peer", []MachineStatus{busy(1), busy(0)}, nil, 32, nil},
		{"half the gap", []MachineStatus{busy(10), busy(0)}, nil, 32,
			[]stealDirective{{donor: 0, recv: 1, want: 5}}},
		{"capped at the batch size", []MachineStatus{busy(0), busy(100)}, nil, 8,
			[]stealDirective{{donor: 1, recv: 0, want: 8}}},
		{"one directive per machine per scan", []MachineStatus{busy(9), busy(0), busy(0)}, nil, 32,
			[]stealDirective{{donor: 0, recv: 2, want: 4}}},
		{"extremes pair first, then the next extremes", []MachineStatus{busy(7), idle, busy(9), busy(0)}, nil, 32,
			[]stealDirective{{donor: 2, recv: 1, want: 5}, {donor: 0, recv: 3, want: 3}}},
		{"dead machines excluded", []MachineStatus{busy(10), {}, busy(4)}, []int{1}, 32,
			[]stealDirective{{donor: 0, recv: 2, want: 3}}},
		{"a lone live machine", []MachineStatus{busy(10), {}}, []int{1}, 32, nil},
		{"an idle cluster", []MachineStatus{idle, idle, idle}, nil, 32, nil},
	} {
		alive := make([]bool, len(tc.sts))
		for m := range alive {
			alive[m] = true
		}
		for _, m := range tc.dead {
			alive[m] = false
		}
		if got := planSteals(tc.sts, alive, tc.batch); !slices.Equal(got, tc.want) {
			t.Errorf("%s: planned %+v, want %+v", tc.name, got, tc.want)
		}
	}
}

// TestStealFeedsIdleMachine: one machine holds the entire big-task
// backlog while the other is idle, and the steal rule must move work
// to the idle machine within the run. The backlog is gated: its tasks
// block until the coordinator's own status view shows machine 1
// received something, so the job cannot end before a steal round
// fires however slowly this test is scheduled; a regression shows as
// the deadline opening the gate and the counters staying zero, not as
// a hang.
func TestStealFeedsIdleMachine(t *testing.T) {
	g := datagen.ErdosRenyi(10, 0.2, 1)
	cfg := Config{
		Machines: 2, WorkersPerMachine: 1,
		StatusInterval: 200 * time.Microsecond,
		SpillDir:       t.TempDir(),
	}
	// Machine 0 ends up holding a skewed backlog of big tasks (one root
	// there fans out into 64 of them); machine 1 spawns nothing and
	// sits idle.
	root := ownedVertices(g.NumVertices(), 2, 0)[0]

	gate := make(chan struct{})
	var open sync.Once
	release := func() { open.Do(func() { close(gate) }) }
	deadline := time.AfterFunc(10*time.Second, release)
	defer deadline.Stop()
	cfg.statusHook = func(machine int, st MachineStatus) {
		if machine == 1 && st.RecvIn > 0 {
			release()
		}
	}
	met := mustRunApp(t, g, &skewApp{root: root, gate: gate}, cfg).Metrics
	if met.TasksStolen == 0 || met.StealRounds == 0 {
		t.Fatalf("the idle machine was never fed: stolen=%d rounds=%d",
			met.TasksStolen, met.StealRounds)
	}
	if met.TasksFinished != 65 {
		t.Fatalf("finished %d of 65 tasks", met.TasksFinished)
	}
}

// skewApp puts the whole job on one machine: the task spawned from
// vertex root adds 64 subtasks; every task is big. A subtask waits for
// gate.
type skewApp struct {
	nilApp
	root graph.V
	gate <-chan struct{}
}

func (a *skewApp) Spawn(v graph.V, _ []graph.V, _ *Ctx) *Task {
	if v != a.root {
		return nil
	}
	return NewTask([]graph.V{64})
}

func (a *skewApp) Compute(t *Task, _ [][]graph.V, ctx *Ctx) bool {
	p := t.Payload.([]graph.V)
	for i := graph.V(0); i < p[0]; i++ {
		ctx.AddTask(NewTask([]graph.V{0}))
	}
	if p[0] == 0 {
		<-a.gate
	}
	return false
}

func (a *skewApp) IsBig(*Task) bool { return true }

// slowSpawnApp widens the spawn/termination race window: Spawn takes
// longer than the watcher tick, so a scan that treats an advanced
// spawn cursor as "spawned and accounted" fires mid-spawn. The spawned
// task is big, landing on the machine's global queue — the placement
// the racing worker loop abandons on doneFlag (a small task is popped
// back off qlocal within the same step and computed even after a
// premature doneFlag).
type slowSpawnApp struct {
	nilApp
	computed atomic.Int64
}

func (a *slowSpawnApp) Spawn(v graph.V, adj []graph.V, _ *Ctx) *Task {
	time.Sleep(3 * time.Millisecond)
	return NewTask([]graph.V{v})
}

func (a *slowSpawnApp) Compute(t *Task, _ [][]graph.V, _ *Ctx) bool {
	a.computed.Add(1)
	return false
}

func (a *slowSpawnApp) IsBig(*Task) bool { return true }

// TestSpawnTerminationRace is the regression test for the dropped
// final task: liveness must be reserved before the spawn cursor
// advances, otherwise a termination scan can observe allSpawned &&
// live == 0 while the last Spawn is still running and end the job
// before its task reaches a queue. A single-vertex partition makes the
// first cursor advance the last one, so every iteration used to race;
// hammered repeatedly (and under -race in CI).
func TestSpawnTerminationRace(t *testing.T) {
	g := graph.NewBuilder(1).MustBuild()
	dir := t.TempDir()
	const runs = 50
	app := &slowSpawnApp{}
	for i := 0; i < runs; i++ {
		met := mustRunApp(t, g, app, Config{Machines: 1, WorkersPerMachine: 1, SpillDir: dir}).Metrics
		if met.TasksSpawned != 1 || met.TasksFinished != 1 {
			t.Fatalf("run %d dropped the final task: spawned=%d finished=%d",
				i, met.TasksSpawned, met.TasksFinished)
		}
	}
	if got := app.computed.Load(); got != runs {
		t.Fatalf("computed %d of %d spawned tasks", got, runs)
	}
}
