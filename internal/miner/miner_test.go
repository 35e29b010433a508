package miner

import (
	"math/rand"
	"testing"
	"time"

	"gthinkerqc/internal/bitset"
	"gthinkerqc/internal/datagen"
	"gthinkerqc/internal/graph"
	"gthinkerqc/internal/gthinker"
	"gthinkerqc/internal/quasiclique"
)

func randomGraph(seed int64, n int, p float64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				b.AddEdge(graph.V(i), graph.V(j))
			}
		}
	}
	return b.MustBuild()
}

// TestParallelMatchesNaive: the end-to-end parallel pipeline (spawn,
// two pull iterations, k-core peels, mining, decomposition, merge,
// maximality filter) must reproduce the ground truth on small random
// graphs, across cluster shapes.
func TestParallelMatchesNaive(t *testing.T) {
	par := quasiclique.Params{Gamma: 0.6, MinSize: 3}
	cfgs := []gthinker.Config{
		{Machines: 1, WorkersPerMachine: 1},
		{Machines: 1, WorkersPerMachine: 3},
		{Machines: 3, WorkersPerMachine: 2},
	}
	for seed := int64(0); seed < 12; seed++ {
		g := randomGraph(seed, 7+int(seed%7), 0.45)
		want := quasiclique.NaiveMaximal(g, par)
		for _, ecfg := range cfgs {
			ecfg.SpillDir = t.TempDir()
			res, err := Mine(g, Config{Params: par}, ecfg)
			if err != nil {
				t.Fatal(err)
			}
			if !quasiclique.SetsEqual(res.Cliques, want) {
				t.Fatalf("seed=%d cfg=%dx%d:\n got  %v\n want %v",
					seed, ecfg.Machines, ecfg.WorkersPerMachine, res.Cliques, want)
			}
		}
	}
}

// TestMineLeavesSIMDSwitch: the vector-kernel switch belongs to the
// process (qcmine -nosimd sets it once); neither a serial mine nor an
// engine job may flip it back.
func TestMineLeavesSIMDSwitch(t *testing.T) {
	defer bitset.SetSIMD(bitset.SIMDEnabled())
	bitset.SetSIMD(false)
	g := randomGraph(1, 12, 0.45)
	par := quasiclique.Params{Gamma: 0.6, MinSize: 3}
	if _, _, err := quasiclique.MineGraph(g, par, quasiclique.Options{}); err != nil {
		t.Fatal(err)
	}
	if bitset.SIMDEnabled() {
		t.Fatal("serial MineGraph switched the vector kernels back on")
	}
	ecfg := gthinker.Config{Machines: 1, WorkersPerMachine: 2, SpillDir: t.TempDir()}
	if _, err := Mine(g, Config{Params: par}, ecfg); err != nil {
		t.Fatal(err)
	}
	if bitset.SIMDEnabled() {
		t.Fatal("miner.Mine switched the vector kernels back on")
	}
}

// TestParallelMatchesSerialOnPlanted compares against the serial miner
// on a planted-community graph large enough to exercise real task
// traffic.
func TestParallelMatchesSerialOnPlanted(t *testing.T) {
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
	par := quasiclique.Params{Gamma: 0.8, MinSize: 7}
	want, _, err := quasiclique.MineGraph(g, par, quasiclique.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("test graph yields no results; planted parameters are wrong")
	}
	for _, ecfg := range []gthinker.Config{
		{Machines: 1, WorkersPerMachine: 2},
		{Machines: 2, WorkersPerMachine: 2},
	} {
		ecfg.SpillDir = t.TempDir()
		res, err := Mine(g, Config{Params: par}, ecfg)
		if err != nil {
			t.Fatal(err)
		}
		if !quasiclique.SetsEqual(res.Cliques, want) {
			t.Fatalf("cfg=%dx%d: parallel %d results, serial %d",
				ecfg.Machines, ecfg.WorkersPerMachine, len(res.Cliques), len(want))
		}
	}
}

// TestStrategiesAndTauTime: both decomposition strategies and extreme
// τtime values must agree with the ground truth (the paper's Table 3/4
// observation: results stay correct while timing shifts).
func TestStrategiesAndTauTime(t *testing.T) {
	par := quasiclique.Params{Gamma: 0.6, MinSize: 3}
	g := randomGraph(5, 12, 0.4)
	want := quasiclique.NaiveMaximal(g, par)
	cases := []Config{
		{Params: par, Strategy: TimeDelayed, TauTime: time.Nanosecond}, // decompose everything
		{Params: par, Strategy: TimeDelayed, TauTime: time.Hour},       // never decompose
		{Params: par, Strategy: SizeThreshold, TauSplit: 2},            // heavy decomposition
		{Params: par, Strategy: SizeThreshold, TauSplit: 1 << 20},      // none
	}
	for i, cfg := range cases {
		res, err := Mine(g, cfg, gthinker.Config{
			Machines: 2, WorkersPerMachine: 2, SpillDir: t.TempDir(),
		})
		if err != nil {
			t.Fatal(err)
		}
		if !quasiclique.SetsEqual(res.Cliques, want) {
			t.Fatalf("case %d (%v):\n got  %v\n want %v", i, cfg.Strategy, res.Cliques, want)
		}
	}
}

// TestDecompositionProducesSubtasks checks that aggressive timeouts
// actually exercise the decomposition path and that the recorder
// splits mining vs. materialization time.
func TestDecompositionProducesSubtasks(t *testing.T) {
	g, _, err := datagen.Planted(datagen.PlantedConfig{
		N: 80, Background: 0.05,
		Communities: []datagen.Community{{Size: 14, Density: 0.9, Count: 2}},
		Seed:        7,
	})
	if err != nil {
		t.Fatal(err)
	}
	par := quasiclique.Params{Gamma: 0.7, MinSize: 5}
	res, err := Mine(g, Config{Params: par, TauTime: time.Nanosecond},
		gthinker.Config{Machines: 1, WorkersPerMachine: 2, SpillDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Engine.SubtasksAdded == 0 {
		t.Fatal("τtime=1ns produced no subtasks")
	}
	if res.Recorder.TotalMaterialize() == 0 {
		t.Fatal("no materialization time recorded despite decomposition")
	}
	if res.Recorder.TotalMining() == 0 {
		t.Fatal("no mining time recorded")
	}
	// Compare against no decomposition.
	res2, err := Mine(g, Config{Params: par, TauTime: time.Hour},
		gthinker.Config{Machines: 1, WorkersPerMachine: 2, SpillDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Engine.SubtasksAdded != 0 {
		t.Fatal("τtime=1h still decomposed")
	}
	if !quasiclique.SetsEqual(res.Cliques, res2.Cliques) {
		t.Fatalf("decomposition changed results: %d vs %d", len(res.Cliques), len(res2.Cliques))
	}
}

// TestSpawnFiltersByDegree: Algorithm 4 line 1 (degree < k spawns no
// task) and the root-degree guard.
func TestSpawnFiltersByDegree(t *testing.T) {
	// Star graph: center has degree 5, leaves degree 1. k for γ=0.5,
	// τ=4 is ⌈0.5·3⌉ = 2, so nothing spawns mining work that can
	// succeed (no quasi-clique of size 4 exists).
	b := graph.NewBuilder(6)
	for i := 1; i < 6; i++ {
		b.AddEdge(0, graph.V(i))
	}
	g := b.MustBuild()
	res, err := Mine(g, Config{Params: quasiclique.Params{Gamma: 0.5, MinSize: 4}},
		gthinker.Config{SpillDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cliques) != 0 {
		t.Fatalf("star graph produced %v", res.Cliques)
	}
}

// TestQuickCompatParallel: the QuickCompat ablation flows through the
// parallel pipeline (candidates must be a subset).
func TestQuickCompatParallel(t *testing.T) {
	par := quasiclique.Params{Gamma: 0.5, MinSize: 3}
	misses := 0
	for seed := int64(0); seed < 30; seed++ {
		g := randomGraph(seed, 10, 0.3)
		full, err := Mine(g, Config{Params: par}, gthinker.Config{SpillDir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		qk, err := Mine(g, Config{Params: par,
			Options: quasiclique.Options{QuickCompat: true}},
			gthinker.Config{SpillDir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		if len(qk.Cliques) < len(full.Cliques) {
			misses++
		}
	}
	if misses == 0 {
		t.Fatal("QuickCompat never missed a result across 30 seeds")
	}
}

// TestInvalidConfigs.
func TestInvalidConfigs(t *testing.T) {
	g := randomGraph(1, 5, 0.5)
	if _, err := Mine(g, Config{Params: quasiclique.Params{Gamma: 0.1, MinSize: 3}},
		gthinker.Config{SpillDir: t.TempDir()}); err == nil {
		t.Fatal("bad gamma accepted")
	}
	if _, err := Mine(g, Config{Params: quasiclique.Params{Gamma: 0.9, MinSize: 3}, TauSplit: -1},
		gthinker.Config{SpillDir: t.TempDir()}); err == nil {
		t.Fatal("negative TauSplit accepted")
	}
}

// TestSpillUnderPressure drives the spill path end to end with mining
// payloads (gob round trip of Sub et al.).
func TestSpillUnderPressure(t *testing.T) {
	g, _, err := datagen.Planted(datagen.PlantedConfig{
		N: 120, Background: 0.04,
		Communities: []datagen.Community{{Size: 10, Density: 0.95, Count: 3}},
		Seed:        3,
	})
	if err != nil {
		t.Fatal(err)
	}
	par := quasiclique.Params{Gamma: 0.7, MinSize: 5}
	want, _, err := quasiclique.MineGraph(g, par, quasiclique.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Mine(g, Config{Params: par, TauTime: time.Nanosecond, TauSplit: 4},
		gthinker.Config{
			Machines: 1, WorkersPerMachine: 2,
			QueueCap: 4, BatchSize: 2, SpillDir: t.TempDir(),
		})
	if err != nil {
		t.Fatal(err)
	}
	if !quasiclique.SetsEqual(res.Cliques, want) {
		t.Fatalf("spill pressure changed results: got %d want %d", len(res.Cliques), len(want))
	}
	if res.Engine.SpillBytesWritten == 0 {
		t.Log("warning: spill path not exercised (queues never overflowed)")
	}
}

// TestRecorderTopKAndHistogram sanity-checks Figure 1/2 plumbing.
func TestRecorderTopKAndHistogram(t *testing.T) {
	g, _, err := datagen.Planted(datagen.PlantedConfig{
		N: 150, Background: 0.03,
		Communities: []datagen.Community{{Size: 11, Density: 0.95, Count: 2}},
		Seed:        13,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Mine(g, Config{Params: quasiclique.Params{Gamma: 0.7, MinSize: 6}},
		gthinker.Config{SpillDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	stats := res.Recorder.PerRoot()
	if len(stats) == 0 {
		t.Fatal("no root stats recorded")
	}
	for i := 1; i < len(stats); i++ {
		if stats[i].Mining > stats[i-1].Mining {
			t.Fatal("PerRoot not sorted by mining time")
		}
	}
	top := res.Recorder.TopK(5)
	if len(top) > 5 {
		t.Fatalf("TopK returned %d", len(top))
	}
}
