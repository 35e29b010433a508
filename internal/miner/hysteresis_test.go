package miner

import (
	"testing"
	"time"

	"gthinkerqc/internal/datagen"
	"gthinkerqc/internal/gthinker"
	"gthinkerqc/internal/quasiclique"
)

// TestMineHysteresisSkewedPlanted mines a planted graph whose big
// tasks concentrate on whichever machines own the community roots,
// with the periodic steal master disabled in practice (1 h period):
// only the coordinator's idle-machine hysteresis can rebalance. Every
// run must produce results identical to the serial miner, and a run
// that stole anything must have recorded the off-cycle rounds that
// moved it. Whether a given run steals is a matter of timing — the
// whole job lasts a few milliseconds — so that the hysteresis fires at
// all is pinned where it holds by construction, on gated tasks:
// gthinker's TestStealHysteresisOffCycle.
func TestMineHysteresisSkewedPlanted(t *testing.T) {
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
				StealInterval:  time.Hour, // periodic master never fires
				StatusInterval: 100 * time.Microsecond,
				StealIdlePolls: 1,
			})
		if err != nil {
			t.Fatal(err)
		}
		if !quasiclique.SetsEqual(res.Cliques, want) {
			t.Fatalf("seed %d: hysteresis-stolen run diverges from serial: %d vs %d cliques",
				seed, len(res.Cliques), len(want))
		}
		met := res.Engine
		if met.TasksStolen > 0 && met.OffCycleSteals == 0 {
			t.Fatalf("seed %d: %d tasks stolen with a 1h period but no off-cycle rounds recorded",
				seed, met.TasksStolen)
		}
		t.Logf("seed %d: %d tasks stolen in %d off-cycle rounds", seed, met.TasksStolen, met.OffCycleSteals)
	}
}
