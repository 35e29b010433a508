package miner

import (
	"context"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"gthinkerqc/internal/datagen"
	"gthinkerqc/internal/graph"
	"gthinkerqc/internal/gthinker"
	"gthinkerqc/internal/quasiclique"
)

// emptyScanGraph is a sparse graph (60 000 vertices, mean degree 6) on
// which emptyScanQuery's spawn gate passes no vertex: a job is the
// spawn scan, termination and nothing else.
func emptyScanGraph() *graph.Graph { return datagen.ErdosRenyiM(60000, 180000, 7) }

var emptyScanQuery = quasiclique.Params{Gamma: 0.9, MinSize: 40}

// TestJobFloorEmptySpawnScan bounds the fixed cost of a job on every
// composition: a warm job whose spawn scan yields no task must take
// milliseconds. It took ~700 ms while an idle worker slept a
// millisecond after every 32 vertices that spawned nothing, and two
// status ticks more to discover it had finished.
func TestJobFloorEmptySpawnScan(t *testing.T) {
	g := emptyScanGraph()
	graphPath := filepath.Join(t.TempDir(), "sparse.gqc")
	if err := graph.WriteBinaryFile(graphPath, g); err != nil {
		t.Fatal(err)
	}
	for _, comp := range []struct {
		name  string
		ecfg  gthinker.Config
		procs bool
	}{
		{name: "direct-1x2", ecfg: gthinker.Config{Machines: 1, WorkersPerMachine: 2}},
		{name: "sockets-2x1", ecfg: gthinker.Config{Machines: 2, WorkersPerMachine: 1, InProcessTCP: true}},
		{name: "processes-2x1", ecfg: gthinker.Config{Machines: 2, WorkersPerMachine: 1}, procs: true},
	} {
		t.Run(comp.name, func(t *testing.T) {
			var s *Session
			if comp.procs {
				if testing.Short() {
					t.Skip("spawns OS processes")
				}
				var err error
				if s, err = StartProcsPool(comp.ecfg, ProcsConfig{GraphPath: graphPath, Command: helperWorkerCommand(graphPath)}); err != nil {
					t.Fatal(err)
				}
			} else {
				s = NewSession(g, comp.ecfg)
			}
			defer s.Close()
			var walls []time.Duration
			for i := 0; i < 6; i++ { // the first job composes and warms the cluster
				start := time.Now()
				res, err := s.Mine(context.Background(), Config{Params: emptyScanQuery})
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Cliques) != 0 || res.Engine.TasksSpawned != 0 {
					t.Fatalf("job %d mined something: %d results, %d tasks", i, len(res.Cliques), res.Engine.TasksSpawned)
				}
				if i > 0 {
					walls = append(walls, time.Since(start))
				}
			}
			slices.Sort(walls)
			if median := walls[len(walls)/2]; median >= 100*time.Millisecond {
				t.Fatalf("median warm job took %v (all: %v), want < 100ms", median, walls)
			}
			t.Logf("warm jobs: %v", walls)
		})
	}
}
