package experiments

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gthinkerqc/internal/gthinker"
	"gthinkerqc/internal/miner"
)

// The experiment smoke tests use the small datasets so the whole file
// runs in a few seconds; full-scale regeneration happens in
// cmd/qcbench.

// small is the shape the smoke tests mine on.
var small = Cluster{Machines: 1, Workers: 2}

func TestTable1(t *testing.T) {
	rows, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("rows = %d, want 8", len(rows))
	}
	for _, r := range rows {
		if r.V == 0 || r.E == 0 {
			t.Fatalf("empty dataset row: %+v", r)
		}
	}
	var buf bytes.Buffer
	PrintTable1(&buf, rows)
	if !strings.Contains(buf.String(), "YouTube") {
		t.Fatal("printout missing dataset")
	}
}

// TestTable2MaximalPinned pins Table 2's Maximal# column, the filtered
// result count of each stand-in at its own parameters. It is an exact
// answer on a fixed graph, the same on every cluster shape and at every
// τtime, so a pruning, screening or decomposition change that loses a
// result (or keeps a non-maximal one) moves it. Result# and Time are
// not pinned: both move with the search and the host.
func TestTable2MaximalPinned(t *testing.T) {
	want := map[string]int{
		"CX_GSE1730": 13, "CX_GSE10158": 112, "Ca-GrQc": 54, "Enron": 2571,
		"DBLP": 12, "Amazon": 3, "Hyves": 53, "YouTube": 1623,
	}
	rows, err := Table2(small)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(want) {
		t.Fatalf("%d Table 2 rows, want %d", len(rows), len(want))
	}
	for _, r := range rows {
		if w, ok := want[r.Name]; !ok || r.Maximal != w {
			t.Errorf("%s: Maximal# %d, want %d", r.Name, r.Maximal, w)
		}
		if r.Results < r.Maximal {
			t.Errorf("%s: Result# %d below Maximal# %d", r.Name, r.Results, r.Maximal)
		}
	}
}

func TestRunSmallDataset(t *testing.T) {
	out, err := Run(RunSpec{Dataset: "CX_GSE1730"}, small)
	if err != nil {
		t.Fatal(err)
	}
	if out.Results == 0 {
		t.Fatal("GSE1730 stand-in produced no results")
	}
	if out.Wall <= 0 || out.TotalMining <= 0 {
		t.Fatalf("timings missing: %+v", out)
	}
	// Unknown dataset errors.
	if _, err := Run(RunSpec{Dataset: "nope"}, small); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestKeepNonMaximalGrowsCounts(t *testing.T) {
	raw, err := Run(RunSpec{Dataset: "CX_GSE10158", KeepNonMaximal: true}, small)
	if err != nil {
		t.Fatal(err)
	}
	filtered, err := Run(RunSpec{Dataset: "CX_GSE10158"}, small)
	if err != nil {
		t.Fatal(err)
	}
	if raw.Results < filtered.Results {
		t.Fatalf("raw %d < filtered %d", raw.Results, filtered.Results)
	}
}

func TestSmallGrid(t *testing.T) {
	g, err := RunGrid("CX_GSE1730",
		[]time.Duration{10 * time.Millisecond, 100 * time.Microsecond},
		[]int{500, 50}, small)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Time) != 2 || len(g.Time[0]) != 2 {
		t.Fatalf("grid shape: %dx%d", len(g.Time), len(g.Time[0]))
	}
	// Result counts must be positive everywhere.
	for i := range g.Results {
		for j := range g.Results[i] {
			if g.Results[i][j] <= 0 {
				t.Fatalf("cell %d,%d empty", i, j)
			}
		}
	}
	var buf bytes.Buffer
	PrintGrid(&buf, g, "Table 3 (smoke)")
	if !strings.Contains(buf.String(), "τtime") {
		t.Fatal("grid printout malformed")
	}
}

func TestScalabilitySmoke(t *testing.T) {
	rows, err := ScaleSweep("CX_GSE10158", []Cluster{{Machines: 1, Workers: 1}, {Machines: 1, Workers: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].TotalBusy == 0 {
		t.Fatal("busy time missing")
	}
	hrows, err := ScaleSweep("CX_GSE10158", []Cluster{{Machines: 1, Workers: 1}, {Machines: 2, Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	PrintScale(&buf, hrows, "Table 5(b) smoke")
	if !strings.Contains(buf.String(), "Machines") {
		t.Fatal("scale printout malformed")
	}
	// The first row is the baseline of the speedup column, and a worker
	// cannot be busy for longer than the job ran.
	if got := Speedup(hrows, 0); got != 1 {
		t.Fatalf("first row's speedup = %v, want 1", got)
	}
	for _, r := range hrows {
		if b := r.BusyFraction(); b <= 0 || b > 1 {
			t.Fatalf("busy fraction %v outside (0, 1]: %+v", b, r)
		}
	}
	if !strings.Contains(buf.String(), "speedup") || !strings.Contains(buf.String(), "busy") {
		t.Fatal("scale printout lacks the derived columns")
	}
}

// TestHelperWorkerProcess is not a test: it is the body of the worker
// OS processes TestScaleSweepHonoursShape spawns by re-executing this
// test binary — cmd/qcworker's main with flags read from the
// environment, as in internal/miner's procs tests.
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

// TestScaleSweepHonoursShape pins that a machine sweep runs each row
// on the machine count it is labelled with, on both compositions that
// have machines to count: worker processes (where the parent of this
// change ran every row on the -procs count) and loopback sockets.
func TestScaleSweepHonoursShape(t *testing.T) {
	for _, procs := range []bool{true, false} {
		name := "sockets"
		if procs {
			name = "processes"
		}
		t.Run(name, func(t *testing.T) {
			if procs && testing.Short() {
				t.Skip("spawns OS processes")
			}
			shapes := []Cluster{{Machines: 1, Workers: 1, Sockets: true}, {Machines: 2, Workers: 1, Sockets: true}}
			spawned := make([]atomic.Int32, len(shapes))
			if procs {
				for i := range shapes {
					i := i
					shapes[i].Worker = func(machine int, graphPath, manifestPath string) *exec.Cmd {
						spawned[i].Add(1)
						cmd := exec.Command(os.Args[0], "-test.run", "^TestHelperWorkerProcess$")
						cmd.Env = append(os.Environ(),
							"QCWORKER_HELPER=1",
							"QCWORKER_GRAPH="+graphPath,
							"QCWORKER_MANIFEST="+manifestPath,
							"QCWORKER_MACHINE="+strconv.Itoa(machine))
						return cmd
					}
				}
			}
			rows, err := ScaleSweep("CX_GSE1730", shapes)
			if err != nil {
				t.Fatal(err)
			}
			if len(rows) != len(shapes) {
				t.Fatalf("rows = %d", len(rows))
			}
			for i, r := range rows {
				m := shapes[i].Machines
				if r.Machines != m || r.Threads != m {
					t.Fatalf("row %d labelled %d machines ran on %d worker threads", i, r.Machines, r.Threads)
				}
				if got := int(spawned[i].Load()); procs && got != m {
					t.Fatalf("row %d spawned %d worker processes, want %d", i, got, m)
				}
			}
		})
	}
}

func TestTable6Smoke(t *testing.T) {
	rows, err := Table6("CX_GSE1730",
		[]time.Duration{10 * time.Millisecond, 50 * time.Microsecond}, small)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	// The aggressive timeout must decompose more than the lax one.
	if rows[1].Subtasks < rows[0].Subtasks {
		t.Fatalf("subtasks should grow as τtime shrinks: %d vs %d",
			rows[0].Subtasks, rows[1].Subtasks)
	}
	var buf bytes.Buffer
	PrintTable6(&buf, rows, "CX_GSE1730")
	if !strings.Contains(buf.String(), "Mining") {
		t.Fatal("table6 printout malformed")
	}
}

func TestFigures(t *testing.T) {
	f, err := CollectFigureData("CX_GSE10158", small)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Roots) == 0 {
		t.Fatal("no root stats")
	}
	bins := f.Figure1()
	if histBinsTotal(bins) != len(f.Roots) {
		t.Fatalf("histogram loses tasks: %d vs %d", histBinsTotal(bins), len(f.Roots))
	}
	top := f.Figure2(10)
	if len(top) == 0 || (len(f.Roots) >= 10 && len(top) != 10) {
		t.Fatalf("top-k = %d", len(top))
	}
	slow, fast := f.Figure3Cohorts(5)
	if len(slow) == 0 {
		t.Fatal("no slow cohort")
	}
	var buf bytes.Buffer
	PrintFigure1(&buf, f)
	PrintFigure2(&buf, f, 10)
	PrintFigure3(&buf, f, 5)
	for _, want := range []string{"Figure 1", "Figure 2", "Figure 3"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("missing %q in figure printouts", want)
		}
	}
	_ = fast
}

func TestAblationPruningSmoke(t *testing.T) {
	rows, err := AblationPruning("CX_GSE1730")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Every variant finds the same maximal results.
	for _, r := range rows[1:] {
		if r.Results != rows[0].Results {
			t.Fatalf("variant %q changed results: %d vs %d",
				r.Variant, r.Results, rows[0].Results)
		}
	}
	var buf bytes.Buffer
	PrintAblation(&buf, rows, "CX_GSE1730")
	if !strings.Contains(buf.String(), "k-core") {
		t.Fatal("ablation printout malformed")
	}
	// Every row prints its time per tree node, read back from the
	// column after time.
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if head := strings.Fields(lines[1]); len(head) < 3 || head[2] != "ns/node" {
		t.Fatalf("no ns/node column after time: %q", lines[1])
	}
	for i, r := range rows {
		if r.Time <= 0 || r.NsPerNode() <= 0 {
			t.Fatalf("variant %q: time %v, %v ns/node", r.Variant, r.Time, r.NsPerNode())
		}
		f := strings.Fields(lines[2+i])
		want := fmt.Sprintf("%.0f", r.NsPerNode())
		if got := f[len(f)-4]; got != want {
			t.Fatalf("variant %q prints %s ns/node, want %s", r.Variant, got, want)
		}
	}
}

func TestAblationQuickMissSmoke(t *testing.T) {
	rows, err := AblationQuickMiss([]string{"CX_GSE1730"})
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].Missed < 0 {
		t.Fatalf("quick found more than full: %+v", rows[0])
	}
	var buf bytes.Buffer
	PrintQuickMiss(&buf, rows)
	if buf.Len() == 0 {
		t.Fatal("empty printout")
	}
}

func TestAblationDecompositionSmoke(t *testing.T) {
	rows, err := AblationDecomposition("CX_GSE10158", small, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	var buf bytes.Buffer
	PrintDecomp(&buf, rows, "CX_GSE10158")
	if !strings.Contains(buf.String(), "time-delayed") {
		t.Fatal("decomp printout malformed")
	}
}
