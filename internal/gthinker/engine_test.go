package gthinker

import (
	"sync/atomic"
	"testing"

	"gthinkerqc/internal/datagen"
	"gthinkerqc/internal/graph"
)

// --- toy app 1: distributed triangle counting ---------------------------

// triPayload carries the spawning vertex and its forward adjacency.
type triPayload struct {
	Root graph.V
	Adj  []graph.V
}

type triApp struct {
	toyCodec
	g     *graph.Graph
	count atomic.Int64
}

func (a *triApp) Spawn(v graph.V, adj []graph.V, _ *Ctx) *Task {
	var fwd []graph.V
	for _, u := range adj {
		if u > v {
			fwd = append(fwd, u)
		}
	}
	if len(fwd) < 2 {
		return nil
	}
	t := NewTask(&triPayload{Root: v, Adj: fwd})
	t.Pulls = fwd
	return t
}

func (a *triApp) Compute(t *Task, frontier [][]graph.V, _ *Ctx) bool {
	p := t.Payload.(*triPayload)
	inAdj := map[graph.V]bool{}
	for _, u := range p.Adj {
		inAdj[u] = true
	}
	n := int64(0)
	for i, u := range p.Adj { // Spawn pulled p.Adj: frontier[i] is Adj(u)
		for _, w := range frontier[i] {
			if w > u && inAdj[w] {
				n++
			}
		}
	}
	a.count.Add(n)
	return false
}

func (a *triApp) IsBig(t *Task) bool {
	return len(t.Payload.(*triPayload).Adj) > 30
}

func bruteTriangles(g *graph.Graph) int64 {
	var n int64
	for v := 0; v < g.NumVertices(); v++ {
		for _, u := range g.Adj(graph.V(v)) {
			if u <= graph.V(v) {
				continue
			}
			for _, w := range g.Adj(u) {
				if w > u && g.HasEdge(graph.V(v), w) {
					n++
				}
			}
		}
	}
	return n
}

func TestEngineTriangleCounting(t *testing.T) {
	g := datagen.ErdosRenyi(300, 0.05, 7)
	want := bruteTriangles(g)
	for _, cfg := range []Config{
		{Machines: 1, WorkersPerMachine: 1},
		{Machines: 1, WorkersPerMachine: 4},
		{Machines: 4, WorkersPerMachine: 2},
	} {
		app := &triApp{g: g}
		cfg.SpillDir = t.TempDir()
		met := mustRunApp(t, g, app, cfg).Metrics
		if app.count.Load() != want {
			t.Fatalf("cfg %dx%d: triangles = %d, want %d",
				cfg.Machines, cfg.WorkersPerMachine, app.count.Load(), want)
		}
		if met.TasksSpawned == 0 || met.TasksFinished != met.TasksSpawned+met.SubtasksAdded {
			t.Fatalf("task accounting: %+v", met)
		}
		if cfg.Machines > 1 && met.RemoteFetches == 0 {
			t.Fatal("multi-machine run should fetch remotely")
		}
		if cfg.Machines == 1 && met.RemoteFetches != 0 {
			t.Fatal("single machine must not fetch remotely")
		}
	}
}

// --- toy app 2: recursive fan-out (tests decomposition machinery) -------

type fanPayload struct {
	Depth  int
	Fanout int
}

type fanApp struct {
	toyCodec
	spawnDepth int
	fanout     int
	computed   atomic.Int64
	leaves     atomic.Int64
}

func (a *fanApp) Spawn(v graph.V, adj []graph.V, _ *Ctx) *Task {
	return NewTask(&fanPayload{Depth: a.spawnDepth, Fanout: a.fanout})
}

func (a *fanApp) Compute(t *Task, _ [][]graph.V, ctx *Ctx) bool {
	a.computed.Add(1)
	p := t.Payload.(*fanPayload)
	if p.Depth == 0 {
		a.leaves.Add(1)
		return false
	}
	for i := 0; i < p.Fanout; i++ {
		ctx.AddTask(NewTask(&fanPayload{Depth: p.Depth - 1, Fanout: p.Fanout}))
	}
	return false
}

func (a *fanApp) IsBig(t *Task) bool { return t.Payload.(*fanPayload).Depth >= 2 }

func TestEngineSubtaskFanOut(t *testing.T) {
	g := datagen.ErdosRenyi(10, 0.3, 1) // 10 spawn roots
	app := &fanApp{spawnDepth: 3, fanout: 3}
	met := mustRunApp(t, g, app, Config{
		Machines: 2, WorkersPerMachine: 2, SpillDir: t.TempDir(),
	}).Metrics
	// Each root expands into 1+3+9+27 = 40 computed tasks, 27 leaves.
	if got := app.computed.Load(); got != 10*40 {
		t.Fatalf("computed = %d, want 400", got)
	}
	if got := app.leaves.Load(); got != 10*27 {
		t.Fatalf("leaves = %d, want 270", got)
	}
	if met.SubtasksAdded != 10*39 {
		t.Fatalf("subtasks = %d, want 390", met.SubtasksAdded)
	}
	if met.BigTasks == 0 || met.SmallTasks == 0 {
		t.Fatalf("expected both big and small tasks, got %d / %d", met.BigTasks, met.SmallTasks)
	}
}

// TestEngineSpillPath forces the spill path with a tiny queue capacity
// and verifies tasks survive the disk round trip.
func TestEngineSpillPath(t *testing.T) {
	g := datagen.ErdosRenyi(4, 1.0, 1)
	app := &fanApp{spawnDepth: 2, fanout: 16}
	met := mustRunApp(t, g, app, Config{
		Machines: 1, WorkersPerMachine: 1,
		QueueCap: 8, BatchSize: 4, SpillDir: t.TempDir(),
	}).Metrics
	// 4 roots × (1 + 16 + 256) computed tasks.
	if got := app.computed.Load(); got != 4*273 {
		t.Fatalf("computed = %d, want %d", got, 4*273)
	}
	if met.SpillFiles == 0 || met.SpillBytesWritten == 0 {
		t.Fatalf("expected spilling with QueueCap=8: %+v", met)
	}
	if met.PeakSpillBytes <= 0 {
		t.Fatalf("peak spill bytes = %d", met.PeakSpillBytes)
	}
}

// TestEngineStealing verifies big tasks migrate between machines when
// one machine owns all the heavy roots.
func TestEngineStealing(t *testing.T) {
	g := datagen.ErdosRenyi(40, 0.2, 3)
	app := &fanApp{spawnDepth: 3, fanout: 4}
	met := mustRunApp(t, g, app, Config{
		Machines: 4, WorkersPerMachine: 1,
		SpillDir: t.TempDir(),
	}).Metrics
	want := int64(40 * (1 + 4 + 16 + 64))
	if got := app.computed.Load(); got != want {
		t.Fatalf("computed = %d, want %d", got, want)
	}
	t.Logf("stolen=%d rounds=%d", met.TasksStolen, met.StealRounds)
}

// TestEngineNoTasks: Spawn returning nil everywhere must terminate
// promptly.
func TestEngineNoTasks(t *testing.T) {
	g := datagen.ErdosRenyi(50, 0.1, 2)
	app := &nilApp{}
	met := mustRunApp(t, g, app, Config{Machines: 2, WorkersPerMachine: 2, SpillDir: t.TempDir()}).Metrics
	if met.TasksSpawned != 0 || met.TasksFinished != 0 {
		t.Fatalf("metrics = %+v", met)
	}
}

func TestEngineConfigValidation(t *testing.T) {
	g := datagen.ErdosRenyi(5, 0.5, 1)
	if _, err := newTestCluster(g, Config{Machines: -1}, nil); err == nil {
		t.Fatal("negative machines accepted")
	}
	if _, err := newTestCluster(g, Config{QueueCap: 2, BatchSize: 50}, nil); err == nil {
		t.Fatal("batch > queue accepted")
	}
	// A negative threshold would declare a machine dead on its first
	// failed poll.
	if _, err := newTestCluster(g, Config{DeadAfterPolls: -1}, nil); err == nil {
		t.Fatal("negative DeadAfterPolls accepted")
	}
}

func TestEngineDisableGlobalQueue(t *testing.T) {
	g := datagen.ErdosRenyi(10, 0.3, 1)
	app := &fanApp{spawnDepth: 2, fanout: 3}
	met := mustRunApp(t, g, app, Config{
		Machines: 2, WorkersPerMachine: 2,
		SpillDir: t.TempDir(), DisableGlobalQueue: true,
	}).Metrics
	if met.BigTasks != 0 {
		t.Fatalf("global queue used despite ablation: %d big tasks", met.BigTasks)
	}
	if got := app.computed.Load(); got != 10*13 {
		t.Fatalf("computed = %d, want 130", got)
	}
}
