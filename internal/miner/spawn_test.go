package miner

import (
	"context"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"gthinkerqc/internal/bitset"
	"gthinkerqc/internal/datagen"
	"gthinkerqc/internal/graph"
	"gthinkerqc/internal/gthinker"
	"gthinkerqc/internal/quasiclique"
)

// fringeGraph is planted dense blocks over a small RMAT graph. RMAT's
// hubs have degree ≥ k but core numbers below it, so the graph has a
// fringe that a degree test would spawn roots in and the core test
// does not.
func fringeGraph(t *testing.T) *graph.Graph {
	t.Helper()
	const scale = 9
	planted, _, err := datagen.Planted(datagen.PlantedConfig{
		N: 1 << scale,
		Communities: []datagen.Community{
			{Size: 12, Density: 0.95, Count: 3},
			{Size: 9, Density: 1.0, Count: 2},
		},
		Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	rmat := datagen.RMAT(scale, 1200, 0.57, 0.19, 0.19, 5)
	b := graph.NewBuilder(1 << scale)
	for _, h := range []*graph.Graph{planted, rmat} {
		for v := 0; v < h.NumVertices(); v++ {
			for _, u := range h.Adj(graph.V(v)) {
				if u > graph.V(v) {
					b.AddEdge(graph.V(v), u)
				}
			}
		}
	}
	return b.MustBuild()
}

// TestSpawnGateLiveRoots: every composition spawns a root task for
// exactly the vertices inside G's k-core that have a larger neighbour
// inside it, and no root in the fringe outside the core, however high
// its degree. With Options.DisableKCore the same count is taken with
// degree ≥ k as the membership test. The 3×2 cluster also checks that
// each machine builds an application for its own two workers only,
// and that direct calls, loopback sockets and worker processes return
// MineGraph's answer.
func TestSpawnGateLiveRoots(t *testing.T) {
	g := fringeGraph(t)
	par := quasiclique.Params{Gamma: 0.8, MinSize: 7}
	k := par.K()
	core := g.CoreNumbers()
	live, degreeGate := 0, 0
	for v := 0; v < g.NumVertices(); v++ {
		larger := func(keep func(u graph.V) bool) bool {
			for _, u := range g.Adj(graph.V(v)) {
				if u > graph.V(v) && keep(u) {
					return true
				}
			}
			return false
		}
		if int(core[v]) >= k && larger(func(u graph.V) bool { return int(core[u]) >= k }) {
			live++
		}
		if g.Degree(graph.V(v)) >= k && larger(func(u graph.V) bool { return g.Degree(u) >= k }) {
			degreeGate++
		}
	}
	if live == 0 || degreeGate <= live {
		t.Fatalf("graph has %d live roots and %d roots by degree: no fringe to test", live, degreeGate)
	}
	t.Logf("%d live roots, %d roots by degree", live, degreeGate)
	want := serialReference(t, g, par)

	ecfg := gthinker.Config{Machines: 3, WorkersPerMachine: 2}
	// Each machine builds one app for its own two workers, whether its
	// host was handed the config (direct calls) or took it from the
	// join (sockets).
	for _, tcp := range []bool{false, true} {
		var mu sync.Mutex
		var apps []*app
		newApp := func(spec []byte, workers int) (gthinker.App, error) {
			a, err := appFactory(g)(spec, workers)
			if err == nil {
				mu.Lock()
				apps = append(apps, a.(*app))
				mu.Unlock()
			}
			return a, err
		}
		cfg := ecfg
		cfg.InProcessTCP, cfg.SpillDir = tcp, t.TempDir()
		cluster, err := gthinker.NewLocalCluster(g, cfg, newApp)
		if err != nil {
			t.Fatal(err)
		}
		_, err = cluster.RunJob(context.Background(), AppendJobSpec(nil, Config{Params: par}))
		cluster.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(apps) != ecfg.Machines {
			t.Fatalf("tcp=%v: %d apps built for %d machines", tcp, len(apps), ecfg.Machines)
		}
		for _, ma := range apps {
			if len(ma.found) != 2 || len(ma.scratches) != 2 || len(ma.miners) != 2 {
				t.Fatalf("tcp=%v: a machine's app holds %d result lists, %d scratches and %d miners, want 2 each",
					tcp, len(ma.found), len(ma.scratches), len(ma.miners))
			}
		}
	}

	graphPath := filepath.Join(t.TempDir(), "fringe.gqc")
	if err := graph.WriteBinaryFile(graphPath, g); err != nil {
		t.Fatal(err)
	}
	for _, comp := range []struct {
		name  string
		tcp   bool
		procs bool
	}{
		{name: "direct"},
		{name: "sockets", tcp: true},
		{name: "processes", procs: true},
	} {
		t.Run(comp.name, func(t *testing.T) {
			ecfg := ecfg
			ecfg.InProcessTCP = comp.tcp
			var s *Session
			if comp.procs {
				if testing.Short() {
					t.Skip("spawns OS processes")
				}
				var err error
				if s, err = StartProcsPool(ecfg, ProcsConfig{GraphPath: graphPath, Command: helperWorkerCommand(graphPath)}); err != nil {
					t.Fatal(err)
				}
			} else {
				ecfg.SpillDir = t.TempDir()
				s = NewSession(g, ecfg)
			}
			defer s.Close()
			// DisableKCore turns the gate back into the degree test.
			for _, job := range []struct {
				opt     quasiclique.Options
				spawned int
			}{{quasiclique.Options{}, live}, {quasiclique.Options{DisableKCore: true}, degreeGate}} {
				res, err := s.Mine(context.Background(), Config{Params: par, Options: job.opt})
				if err != nil {
					t.Fatal(err)
				}
				if !slices.EqualFunc(res.Cliques, want, slices.Equal[[]graph.V]) {
					t.Fatalf("%+v: %d cliques, want MineGraph's %d", job.opt, len(res.Cliques), len(want))
				}
				if got := res.Engine.TasksSpawned; got != uint64(job.spawned) {
					t.Fatalf("%+v: spawned %d root tasks, want %d (%d live roots, %d by degree)", job.opt, got, job.spawned, live, degreeGate)
				}
			}
		})
	}
}

// TestRootPathAllocs holds a warm worker to the allocations a root
// keeps, from Spawn to the start of iteration 3: Spawn's task, payload
// and pull list, iteration 1's partial subgraph (Payload.Partial), and
// iteration 2's Sub and the one allocation its rows, label, S and Ext
// share — six in all. The frontiers are built outside the measured
// runs, as the engine resolves them; the engine's own copy of each
// iteration's pulls is not the app's. Roots of one and of two matrix
// words are both measured.
func TestRootPathAllocs(t *testing.T) {
	g := fringeGraph(t)
	a := newApp(g, Config{Params: quasiclique.Params{Gamma: 0.6, MinSize: 5}}, 1)
	ctx := &gthinker.Ctx{}
	rows := func(pulls []graph.V) [][]graph.V {
		out := make([][]graph.V, len(pulls))
		for i, u := range pulls {
			out[i] = g.Adj(u)
		}
		return out
	}
	widths := map[int]bool{}
	for v := graph.V(0); int(v) < g.NumVertices() && len(widths) < 2; v++ {
		t1 := a.Spawn(v, g.Adj(v), ctx)
		if t1 == nil {
			continue
		}
		front1 := rows(t1.Pulls)
		p := t1.Payload.(*Payload)
		if !a.Compute(t1, front1, ctx) {
			continue
		}
		// Iteration 1 pulled the partial subgraph's vertices beyond
		// {v} ∪ pulls, in order of first appearance.
		known := map[graph.V]bool{v: true}
		for _, u := range t1.Pulls {
			known[u] = true
		}
		var pulls2 []graph.V
		for _, w := range p.Partial[2+2*p.Partial.len():] {
			if w > v && !known[w] {
				known[w] = true
				pulls2 = append(pulls2, w)
			}
		}
		front2 := rows(pulls2)
		t1.Pulls = pulls2
		if !a.Compute(t1, front2, ctx) || p.Iteration != 3 {
			continue
		}
		words := bitset.WordsFor(p.Sub.N())
		if widths[words] || words > 2 {
			continue
		}
		widths[words] = true
		allocs := testing.AllocsPerRun(50, func() {
			t := a.Spawn(v, g.Adj(v), ctx)
			a.Compute(t, front1, ctx)
			t.Pulls = pulls2
			a.Compute(t, front2, ctx)
			if t.Payload.(*Payload).Iteration != 3 {
				panic("root did not reach iteration 3")
			}
		})
		t.Logf("root %d: %d vertices, %d-word rows, %v allocations", v, p.Sub.N(), words, allocs)
		if allocs > 6 {
			t.Errorf("root %d: %v allocations from Spawn to iteration 3, want ≤ 6", v, allocs)
		}
	}
	if len(widths) < 2 {
		t.Fatalf("roots measured at widths %v, want one and two words", widths)
	}
}
