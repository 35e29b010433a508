package miner

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"gthinkerqc/internal/datagen"
	"gthinkerqc/internal/graph"
	"gthinkerqc/internal/gthinker"
	"gthinkerqc/internal/quasiclique"
	"gthinkerqc/internal/store"
)

// TestHelperWorkerProcess is not a test: it is the body of the worker
// OS processes the -procs tests spawn, re-executing this test binary
// (so the e2e needs no separately built qcworker, and `go test -race`
// runs the worker processes race-instrumented too). It is exactly
// cmd/qcworker's main with flags read from the environment.
func TestHelperWorkerProcess(t *testing.T) {
	if os.Getenv("QCWORKER_HELPER") != "1" {
		t.Skip("helper process body, not a test")
	}
	machine, err := strconv.Atoi(os.Getenv("QCWORKER_MACHINE"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "helper:", err)
		os.Exit(1)
	}
	host, cleanup, err := HostWorker(os.Getenv("QCWORKER_GRAPH"), os.Getenv("QCWORKER_MANIFEST"), machine)
	if err != nil {
		fmt.Fprintln(os.Stderr, "helper:", err)
		os.Exit(1)
	}
	gthinker.PrintWorkerReady(os.Stdout, host)
	host.WaitExit()
	cleanup()
	os.Exit(0)
}

// helperWorkerCommand re-executes this test binary as a qcworker.
func helperWorkerCommand(graphPath string) func(machine int, manifestPath string) *exec.Cmd {
	return func(machine int, manifestPath string) *exec.Cmd {
		cmd := exec.Command(os.Args[0], "-test.run", "^TestHelperWorkerProcess$")
		cmd.Env = append(os.Environ(),
			"QCWORKER_HELPER=1",
			"QCWORKER_GRAPH="+graphPath,
			"QCWORKER_MANIFEST="+manifestPath,
			"QCWORKER_MACHINE="+strconv.Itoa(machine))
		return cmd
	}
}

// writeProcsGraph builds the planted test graph and writes it as a
// GQC2 file for the worker processes to map.
func writeProcsGraph(t *testing.T, dir string) (*graph.Graph, string) {
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
	path := filepath.Join(dir, "procs.gqc")
	if err := graph.WriteBinaryFile(path, g); err != nil {
		t.Fatal(err)
	}
	return g, path
}

// TestMineProcsWorkerKilledRecovers is the worker-loss end-to-end: a
// 4-process cluster whose job spec carries a fault plan that kills one
// worker process (hard exit 137) mid-run. The coordinator must detect
// the loss, hand the dead machine's partition to a survivor, and finish
// with results bit-identical to the serial miner. Before recovery
// landed, the first failed status poll aborted the whole run — this
// test is the regression gate for that behavior.
func TestMineProcsWorkerKilledRecovers(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns OS processes")
	}
	dir := t.TempDir()
	g, graphPath := writeProcsGraph(t, dir)
	par := quasiclique.Params{Gamma: 0.8, MinSize: 7}
	cfg := Config{Params: par, TauTime: time.Nanosecond, TauSplit: 4}
	ecfg := gthinker.Config{
		Machines: 4, WorkersPerMachine: 2,
		StatusInterval: time.Millisecond,
		DeadAfterPolls: 3,
		FrameTimeout:   5 * time.Second,
		// Kill machine 1 on its 2nd status poll that observed mining
		// (a busy machine answers one per StatusInterval; the job lasts
		// tens of them).
		FaultSpec: "9:kill=1@2",
	}

	serial, _, err := quasiclique.MineGraph(g, par, quasiclique.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) == 0 {
		t.Fatal("planted graph yields no results; parameters are wrong")
	}

	done := make(chan struct{})
	var res *Result
	go func() {
		defer close(done)
		res, err = MineProcs(context.Background(), cfg, ecfg, ProcsConfig{
			GraphPath: graphPath,
			Command:   helperWorkerCommand(graphPath),
		})
	}()
	select {
	case <-done:
	case <-time.After(120 * time.Second):
		t.Fatal("coordinator hung on a dead worker")
	}
	if err != nil {
		t.Fatalf("run did not survive the worker kill: %v", err)
	}
	if !quasiclique.SetsEqual(res.Cliques, serial) {
		t.Fatalf("post-recovery results diverge from serial: %d vs %d cliques",
			len(res.Cliques), len(serial))
	}
	met := res.Engine
	if met.DeadMachines != 1 || met.Recoveries != 1 {
		t.Fatalf("want exactly one recovered loss, got dead=%d recoveries=%d",
			met.DeadMachines, met.Recoveries)
	}
	t.Logf("recovered run: %v", met)
}

// TestMineProcsKeptManifest is the process leg of
// TestCompositionsBitIdentical on 3×2: three worker processes, each
// with two threads, mine through the manifest the pool keeps in
// ManifestDir. Results must be bit-identical to the serial miner, and
// the kept manifest must describe the deployment.
func TestMineProcsKeptManifest(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns OS processes")
	}
	dir := t.TempDir()
	g, graphPath := writeProcsGraph(t, dir)
	par := quasiclique.Params{Gamma: 0.8, MinSize: 7}
	cfg := Config{Params: par, TauTime: time.Nanosecond, TauSplit: 4}
	ecfg := gthinker.Config{
		Machines: 3, WorkersPerMachine: 2,
	}

	serial, _, err := quasiclique.MineGraph(g, par, quasiclique.Options{})
	if err != nil {
		t.Fatal(err)
	}
	manDir := t.TempDir()
	res, err := MineProcs(context.Background(), cfg, ecfg, ProcsConfig{
		GraphPath:   graphPath,
		Command:     helperWorkerCommand(graphPath),
		ManifestDir: manDir,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !quasiclique.SetsEqual(res.Cliques, serial) {
		t.Fatalf("3-process cluster diverges from serial: %d vs %d cliques",
			len(res.Cliques), len(serial))
	}
	if res.Engine.RemoteFetches == 0 {
		t.Fatalf("no cross-process fetches: %+v", res.Engine)
	}
	ents, err := os.ReadDir(manDir)
	if err != nil || len(ents) != 1 {
		t.Fatalf("manifest dir: %v entries, err %v", len(ents), err)
	}
	man, err := store.ReadManifestFile(filepath.Join(manDir, ents[0].Name()))
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Machines) != ecfg.Machines || man.NumVertices != g.NumVertices() {
		t.Fatalf("manifest has %d machines and |V|=%d, want %d and %d",
			len(man.Machines), man.NumVertices, ecfg.Machines, g.NumVertices())
	}
}
