package miner

import (
	"context"
	"errors"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"gthinkerqc/internal/datagen"
	"gthinkerqc/internal/graph"
	"gthinkerqc/internal/gthinker"
	"gthinkerqc/internal/quasiclique"
)

func sessionTestGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, _, err := datagen.Planted(datagen.PlantedConfig{
		N:          400,
		Background: 0.01,
		Communities: []datagen.Community{
			{Size: 12, Density: 0.95, Count: 3},
			{Size: 9, Density: 1.0, Count: 2},
		},
		Seed: 99,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func serialReference(t *testing.T, g *graph.Graph, par quasiclique.Params) [][]graph.V {
	t.Helper()
	sets, _, err := quasiclique.MineGraph(g, par, quasiclique.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sets) == 0 {
		t.Fatalf("no serial results for γ=%v τ=%d; test parameters are wrong", par.Gamma, par.MinSize)
	}
	return sets
}

// TestCompositionsBitIdentical is the one gate every way of composing a
// cluster passes through: where the machines live (this process or
// worker processes) and how they are reached (direct calls or sockets)
// may change how a job travels, never what it returns. Each
// composition opens ONE session per decomposition strategy and takes
// it through a session's whole life:
//
//   - three back-to-back jobs with different γ/τsize — the cluster is
//     reset, not rebuilt, between them, and the third repeats the
//     first, so state leaking across jobs (queues, spill lists,
//     liveness counters, collector contents) shows up as a diff;
//   - a cancelled job and a job whose TimeBudget expires, then a clean
//     job on the same session;
//   - Close (twice), after which Mine must fail at once with
//     ErrSessionClosed and the caller's SpillDir must be empty.
//
// Every completed job must equal quasiclique.MineGraph with that job's
// parameters — the same sets in the same order — and report per-root
// rows; under size-threshold decomposition the emission count and each
// root's (root, subgraph size, subtasks) must match across
// compositions. CI runs it under -race; the process composition is
// skipped under -short.
func TestCompositionsBitIdentical(t *testing.T) {
	// Denser background than sessionTestGraph: root tasks big enough
	// for size-threshold decomposition to overflow the tiny queues.
	g, _, err := datagen.Planted(datagen.PlantedConfig{
		N: 350, Background: 0.015,
		Communities: []datagen.Community{
			{Size: 12, Density: 0.95, Count: 3},
			{Size: 9, Density: 1.0, Count: 2},
		},
		Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	graphPath := filepath.Join(t.TempDir(), "graph.gqc")
	if err := graph.WriteBinaryFile(graphPath, g); err != nil {
		t.Fatal(err)
	}
	jobs := []quasiclique.Params{
		{Gamma: 0.8, MinSize: 7},
		{Gamma: 0.9, MinSize: 5},
		{Gamma: 0.8, MinSize: 7},
	}
	want := make([][][]graph.V, len(jobs))
	for i, par := range jobs {
		want[i] = serialReference(t, g, par)
	}

	compositions := []struct {
		name     string
		ecfg     gthinker.Config
		procs    bool
		overWire bool // remote pulls and steals cross a socket
	}{
		{name: "direct-1x3", ecfg: gthinker.Config{Machines: 1, WorkersPerMachine: 3}},
		{name: "direct-2x2", ecfg: gthinker.Config{Machines: 2, WorkersPerMachine: 2}},
		{name: "sockets-2x1", ecfg: gthinker.Config{Machines: 2, WorkersPerMachine: 1, InProcessTCP: true}, overWire: true},
		{name: "processes-2x1", ecfg: gthinker.Config{Machines: 2, WorkersPerMachine: 1}, procs: true, overWire: true},
	}
	strategies := []struct {
		name  string
		cfg   Config
		spill bool // tiny queues: every worker spills and refills
	}{
		// τtime = 1 ns decomposes maximally: every task times out at
		// once and wraps its subtrees into subtasks.
		{name: "time-delayed", cfg: Config{TauTime: time.Nanosecond, TauSplit: 4}},
		// Size-threshold decomposition over 2-task queues: at τsplit 7
		// every job has computes that route three or more small
		// subtasks at once onto their own worker's local queue, which
		// no other thread pops, so batches of Sub-carrying tasks hit
		// disk and come back however the threads are scheduled. Which
		// subtasks a compute makes depends only on its task.
		{name: "size-threshold-spill", cfg: Config{Strategy: SizeThreshold, TauSplit: 7}, spill: true},
	}

	first := map[string]*Result{} // each strategy's first composition's last job
	for _, comp := range compositions {
		for _, strat := range strategies {
			t.Run(comp.name+"/"+strat.name, func(t *testing.T) {
				if comp.procs && testing.Short() {
					t.Skip("spawns OS processes")
				}
				ecfg := comp.ecfg
				if strat.spill {
					ecfg.QueueCap, ecfg.BatchSize = 2, 2
				}
				var s *Session
				spillDir := ""
				if comp.procs {
					var err error
					s, err = StartProcsPool(ecfg, ProcsConfig{GraphPath: graphPath, Command: helperWorkerCommand(graphPath)})
					if err != nil {
						t.Fatal(err)
					}
				} else {
					spillDir = t.TempDir()
					ecfg.SpillDir = spillDir
					s = NewSession(g, ecfg)
				}
				defer s.Close()
				mine := func(ctx context.Context, par quasiclique.Params, budget time.Duration) (*Result, error) {
					cfg := strat.cfg
					cfg.Params, cfg.TimeBudget = par, budget
					return s.Mine(ctx, cfg)
				}
				mustMatch := func(label string, i int) *Result {
					t.Helper()
					res, err := mine(context.Background(), jobs[i], 0)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if !slices.EqualFunc(res.Cliques, want[i], slices.Equal[[]graph.V]) {
						t.Fatalf("%s (γ=%v τ=%d) differs from serial: %d vs %d cliques",
							label, jobs[i].Gamma, jobs[i].MinSize, len(res.Cliques), len(want[i]))
					}
					return res
				}

				for i := range jobs {
					met := mustMatch("job", i).Engine
					if met.TasksSpawned == 0 || met.TasksFinished != met.TasksSpawned+met.SubtasksAdded {
						t.Fatalf("job %d: task accounting: %+v", i, met)
					}
					if len(met.WorkerBusy) != ecfg.Machines*ecfg.WorkersPerMachine {
						t.Fatalf("job %d: %d worker busy entries for %dx%d", i, len(met.WorkerBusy), ecfg.Machines, ecfg.WorkersPerMachine)
					}
					if ecfg.Machines > 1 && met.RemoteFetches == 0 {
						t.Fatalf("job %d: no remote fetches on %d machines", i, ecfg.Machines)
					}
					if comp.overWire {
						if met.BatchedFetches == 0 || met.BatchedFetches > met.RemoteFetches {
							t.Fatalf("job %d: %d round trips for %d fetches", i, met.BatchedFetches, met.RemoteFetches)
						}
						if met.WireBytesSent == 0 || met.WireBytesReceived == 0 {
							t.Fatalf("job %d: wire traffic not accounted", i)
						}
					}
					if strat.spill {
						if met.SpillBytesWritten == 0 || met.RefillBatches == 0 {
							t.Fatalf("job %d: no spill pressure: %+v", i, met)
						}
						if met.SpillBytesRead != met.SpillBytesWritten {
							t.Fatalf("job %d: refills read %d of %d spilled bytes", i, met.SpillBytesRead, met.SpillBytesWritten)
						}
					}
				}

				canceled, cancel := context.WithCancel(context.Background())
				cancel()
				if _, err := mine(canceled, jobs[0], 0); !errors.Is(err, context.Canceled) {
					t.Fatalf("canceled job err = %v, want context.Canceled", err)
				}
				if _, err := mine(context.Background(), jobs[0], time.Nanosecond); !errors.Is(err, context.DeadlineExceeded) {
					t.Fatalf("budgeted job err = %v, want context.DeadlineExceeded", err)
				}
				res := mustMatch("job after aborts", 0)
				// Every machine reports its per-root rows at shutdown, so
				// every composition has them, and under size-threshold
				// decomposition they, like the emission count, depend
				// only on the job.
				workByRoot(t, res)
				if ref, ok := first[strat.name]; !ok {
					first[strat.name] = res
				} else if strat.spill {
					assertSameWork(t, res, ref)
				}

				if err := s.Close(); err != nil {
					t.Fatalf("close: %v", err)
				}
				if err := s.Close(); err != nil {
					t.Fatalf("second close: %v", err)
				}
				start := time.Now()
				if _, err := mine(context.Background(), jobs[0], 0); !errors.Is(err, ErrSessionClosed) {
					t.Fatalf("mine after close: err = %v, want ErrSessionClosed", err)
				}
				if d := time.Since(start); d > 100*time.Millisecond {
					t.Fatalf("mine after close took %v to fail", d)
				}
				if spillDir != "" {
					assertNoFiles(t, spillDir)
				}
			})
		}
	}
}
