package gthinkerqc

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"gthinkerqc/internal/gthinker"
	"gthinkerqc/internal/miner"
)

// hardGraph builds an instance expensive enough that cancellation can
// land mid-mining.
func hardGraph(t *testing.T) *Graph {
	t.Helper()
	g, _, err := GeneratePlanted(8000, 0.001, []CommunitySpec{
		{Size: 30, Density: 0.87, Count: 2},
	}, 777)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestMineSerialContextCancel(t *testing.T) {
	g := hardGraph(t)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := MineSerialContext(ctx, g, Config{Gamma: 0.9, MinSize: 14})
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
	// Whatever was found must be valid.
	if res != nil {
		for _, qc := range res.Cliques {
			if !IsQuasiClique(g, qc, 0.9) {
				t.Fatalf("partial result invalid: %v", qc)
			}
		}
	}
}

func TestMineParallelContextCancel(t *testing.T) {
	g := hardGraph(t)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := MineParallelContext(ctx, g, Config{
		Gamma: 0.9, MinSize: 14,
		Machines: 1, WorkersPerMachine: 2,
		TauTime: time.Hour, // force long single tasks: abort must interrupt Compute
	})
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if elapsed > 3*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
	if res == nil {
		t.Fatal("expected partial results container")
	}
	for _, qc := range res.Cliques {
		if !IsQuasiClique(g, qc, 0.9) {
			t.Fatalf("partial result invalid: %v", qc)
		}
	}
}

func TestContextCompletesNormally(t *testing.T) {
	// A generous deadline must not disturb results.
	g, _, err := GeneratePlanted(400, 0.01, []CommunitySpec{{Size: 10, Density: 1, Count: 2}}, 3)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	want, err := MineSerial(g, Config{Gamma: 0.8, MinSize: 6})
	if err != nil {
		t.Fatal(err)
	}
	got, err := MineSerialContext(ctx, g, Config{Gamma: 0.8, MinSize: 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Cliques) != len(want.Cliques) {
		t.Fatalf("context run changed results: %d vs %d", len(got.Cliques), len(want.Cliques))
	}
	gotP, err := MineParallelContext(ctx, g, Config{Gamma: 0.8, MinSize: 6, WorkersPerMachine: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(gotP.Cliques) != len(want.Cliques) {
		t.Fatalf("parallel context run changed results: %d vs %d", len(gotP.Cliques), len(want.Cliques))
	}
}

// TestHelperWorkerProcess is not a test: it is the body of the worker
// processes TestMineClusterCancelKeepsPartial spawns, re-executing this
// test binary as cmd/qcworker with its flags read from the environment.
func TestHelperWorkerProcess(t *testing.T) {
	if os.Getenv("QCWORKER_HELPER") != "1" {
		t.Skip("helper process body, not a test")
	}
	machine, err := strconv.Atoi(os.Getenv("QCWORKER_MACHINE"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "helper:", err)
		os.Exit(1)
	}
	host, cleanup, err := miner.HostWorker(os.Getenv("QCWORKER_GRAPH"), os.Getenv("QCWORKER_MANIFEST"), machine)
	if err != nil {
		fmt.Fprintln(os.Stderr, "helper:", err)
		os.Exit(1)
	}
	gthinker.PrintWorkerReady(os.Stdout, host)
	host.WaitExit()
	cleanup()
	os.Exit(0)
}

// TestMineClusterCancelKeepsPartial: a worker-process run cancelled
// mid-mine returns its partial result with the context's error, like
// MineParallelContext, instead of dropping what the workers found.
func TestMineClusterCancelKeepsPartial(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	g := hardGraph(t)
	path := filepath.Join(t.TempDir(), "hard.bin")
	if err := SaveBinaryFile(path, g); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	time.AfterFunc(time.Second, cancel)
	start := time.Now()
	res, err := MineCluster(ctx, Config{
		// About 15 s of mining on two machines: the cancel lands
		// mid-mine. Long single tasks (τtime) must still abort.
		Gamma: 0.8, MinSize: 12,
		Machines: 2, WorkersPerMachine: 1,
		TauTime: time.Hour,
	}, ClusterOptions{
		GraphPath: path,
		WorkerCommand: func(machine int, manifestPath string) *exec.Cmd {
			cmd := exec.Command(os.Args[0], "-test.run", "^TestHelperWorkerProcess$")
			cmd.Env = append(os.Environ(),
				"QCWORKER_HELPER=1",
				"QCWORKER_GRAPH="+path,
				"QCWORKER_MANIFEST="+manifestPath,
				"QCWORKER_MACHINE="+strconv.Itoa(machine))
			return cmd
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 20*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
	if res == nil {
		t.Fatal("partial result dropped")
	}
	for _, qc := range res.Cliques {
		if !IsQuasiClique(g, qc, 0.8) {
			t.Fatalf("partial result invalid: %v", qc)
		}
	}
}
