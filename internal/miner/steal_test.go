package miner

import (
	"testing"
	"time"

	"gthinkerqc/internal/datagen"
	"gthinkerqc/internal/gthinker"
	"gthinkerqc/internal/quasiclique"
)

// TestMineStealSkewedPlanted mines a planted graph whose big tasks
// concentrate on whichever machine owns the community's roots while
// the others drain and idle, so the coordinator's steal rule is what
// spreads the backlog. Every run must produce results identical to the
// serial miner, and a run that stole anything must have counted the
// rounds that moved it. Whether a given run steals is a matter of
// timing — the whole job lasts a few milliseconds — so that the rule
// feeds an idle machine at all is pinned where it holds by
// construction, on gated tasks: gthinker's TestStealFeedsIdleMachine.
func TestMineStealSkewedPlanted(t *testing.T) {
	par := quasiclique.Params{Gamma: 0.8, MinSize: 7}
	for seed := uint64(1); seed <= 5; seed++ {
		// ONE heavy community: its root's decomposition floods exactly
		// one machine's global queue with big subtasks while the
		// machines owning only background vertices drain and idle.
		g, _, err := datagen.Planted(datagen.PlantedConfig{
			N:          400,
			Background: 0.008,
			Communities: []datagen.Community{
				{Size: 18, Density: 0.9, Count: 1},
			},
			Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := quasiclique.MineGraph(g, par, quasiclique.Options{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Mine(g, Config{Params: par, TauTime: 200 * time.Microsecond, TauSplit: 2},
			gthinker.Config{
				Machines: 3, WorkersPerMachine: 1, SpillDir: t.TempDir(),
				StatusInterval: 100 * time.Microsecond,
			})
		if err != nil {
			t.Fatal(err)
		}
		if !quasiclique.SetsEqual(res.Cliques, want) {
			t.Fatalf("seed %d: stolen run diverges from serial: %d vs %d cliques",
				seed, len(res.Cliques), len(want))
		}
		met := res.Engine
		if met.TasksStolen > 0 && met.StealRounds == 0 {
			t.Fatalf("seed %d: %d tasks stolen but no steal rounds recorded",
				seed, met.TasksStolen)
		}
		t.Logf("seed %d: %d tasks stolen in %d rounds", seed, met.TasksStolen, met.StealRounds)
	}
}
