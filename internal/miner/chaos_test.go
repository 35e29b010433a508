package miner

import (
	"cmp"
	"fmt"
	"slices"
	"testing"
	"time"

	"gthinkerqc/internal/datagen"
	"gthinkerqc/internal/graph"
	"gthinkerqc/internal/gthinker"
	"gthinkerqc/internal/quasiclique"
)

// chaosGraph builds the planted-community graph shared by the chaos
// matrix, plus the serial ground truth every faulted run must match.
func chaosGraph(t *testing.T) (*graph.Graph, [][]graph.V) {
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
	want, _, err := quasiclique.MineGraph(g, quasiclique.Params{Gamma: 0.8, MinSize: 7}, quasiclique.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("planted graph yields no results; parameters are wrong")
	}
	return g, want
}

// chaosMine runs one in-process mining job, over loopback TCP when tcp
// is set and direct calls otherwise, under the given fault plan with a
// hang guard: a seeded plan must end in bit-identical results or a
// clean error — never a stall past the frame deadlines.
func chaosMine(t *testing.T, g *graph.Graph, plan string, tcp bool, strategy Strategy) (*Result, error) {
	t.Helper()
	cfg := Config{
		Params:  quasiclique.Params{Gamma: 0.8, MinSize: 7},
		TauTime: time.Nanosecond, TauSplit: 4, Strategy: strategy,
	}
	ecfg := gthinker.Config{
		Machines: 2, WorkersPerMachine: 2, SpillDir: t.TempDir(),
		InProcessTCP:   tcp,
		StatusInterval: 2 * time.Millisecond,
		DeadAfterPolls: 3,
		FrameTimeout:   2 * time.Second,
		FaultSpec:      plan,
	}
	type outcome struct {
		res *Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := Mine(g, cfg, ecfg)
		done <- outcome{res, err}
	}()
	select {
	case o := <-done:
		return o.res, o.err
	case <-time.After(90 * time.Second):
		t.Fatalf("plan %q hung the run", plan)
		return nil, nil
	}
}

// TestMineChaosMatrix drives the fault-injection harness end to end:
// seeded plans inject dial failures, frame delays, and mid-frame
// connection resets into a live in-process TCP cluster. Every plan
// must terminate — either with results bit-identical to the serial
// miner or with a clean error — and the deterministic seeds make any
// failure replayable with `-faultplan <plan>`.
func TestMineChaosMatrix(t *testing.T) {
	g, want := chaosGraph(t)
	plans := []string{
		"",                  // control: the harness off must stay exact
		"1:dialfail=0.2",    // dials fail, the retry budget rides it out
		"2:delay=200us/0.3", // frames stall under the per-frame deadline
		"3:reset=0.02",      // mid-frame resets; idempotent ops retry
		"4:dialfail=0.1,delay=100us/0.2,reset=0.01", // everything at once
	}
	for _, plan := range plans {
		plan := plan
		t.Run(fmt.Sprintf("plan=%q", plan), func(t *testing.T) {
			res, err := chaosMine(t, g, plan, true, TimeDelayed)
			if err != nil {
				// A fault landing on a non-idempotent frame (join, steal,
				// shutdown) aborts the run cleanly: acceptable, as long as
				// it is typed and prompt. Bit-rot in the error path would
				// surface here as a hang caught by the guard instead.
				t.Logf("plan %q: clean abort: %v", plan, err)
				return
			}
			if !quasiclique.SetsEqual(res.Cliques, want) {
				t.Fatalf("plan %q corrupted results: got %d cliques, want %d",
					plan, len(res.Cliques), len(want))
			}
			t.Logf("plan %q: exact results; engine: %v", plan, res.Engine)
		})
	}
}

// TestMineChaosKillRecovers is the in-process half of the worker-loss
// acceptance: a seeded kill plan murders machine 1 mid-run (its
// runtime stops, and over TCP its sockets die), the coordinator
// declares it dead after DeadAfterPolls failed polls, and the survivor
// adopts its partitions — the run MUST complete with results
// bit-identical to the serial miner, counting exactly one recovery.
// Both in-process compositions run the kill: qcmine -machines N
// -faultplan reaches its machines by direct calls. Under SizeThreshold
// a task's emissions and subtasks depend only on the task, so the
// recovered run must also count what a fault-free run counts: the dead
// machine's partial work drops with its report.
func TestMineChaosKillRecovers(t *testing.T) {
	g, want := chaosGraph(t)
	for _, tc := range []struct {
		name     string
		tcp      bool
		strategy Strategy
	}{
		{"direct", false, TimeDelayed}, {"tcp", true, TimeDelayed},
		{"direct/size-threshold", false, SizeThreshold}, {"tcp/size-threshold", true, SizeThreshold},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := chaosMine(t, g, "5:kill=1@2", tc.tcp, tc.strategy)
			if err != nil {
				t.Fatalf("run did not survive the worker kill: %v", err)
			}
			if !quasiclique.SetsEqual(res.Cliques, want) {
				t.Fatalf("post-recovery results diverge from serial: got %d cliques, want %d",
					len(res.Cliques), len(want))
			}
			met := res.Engine
			if met.DeadMachines != 1 || met.Recoveries != 1 {
				t.Fatalf("want exactly one recovery of one dead machine, got recover=%d/%d",
					met.Recoveries, met.DeadMachines)
			}
			t.Logf("survived kill: %v", met)
			if tc.strategy == SizeThreshold {
				clean, err := chaosMine(t, g, "", tc.tcp, tc.strategy)
				if err != nil {
					t.Fatal(err)
				}
				assertSameWork(t, res, clean)
			}
		})
	}
}

// rootWork is what a run did for one root task, timing aside.
type rootWork struct {
	Root              graph.V
	SubSize, Subtasks int
}

// workByRoot lists a run's per-root rows in root order; a run that
// reports none fails t.
func workByRoot(t *testing.T, res *Result) []rootWork {
	t.Helper()
	var out []rootWork
	for _, s := range res.Recorder.PerRoot() {
		out = append(out, rootWork{s.Root, s.SubSize, s.Subtasks})
	}
	if len(out) == 0 {
		t.Fatal("the run reported no per-root rows")
	}
	slices.SortFunc(out, func(a, b rootWork) int { return cmp.Compare(a.Root, b.Root) })
	return out
}

// assertSameWork fails t unless got counted want's candidate emissions
// and did want's work for every root.
func assertSameWork(t *testing.T, got, want *Result) {
	t.Helper()
	if got.Candidates != want.Candidates {
		t.Fatalf("%d candidates, want %d", got.Candidates, want.Candidates)
	}
	if g, w := workByRoot(t, got), workByRoot(t, want); !slices.Equal(g, w) {
		t.Fatalf("per-root work differs: %d roots, want %d", len(g), len(w))
	}
}
