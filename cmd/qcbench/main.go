// Command qcbench regenerates the paper's evaluation tables and
// figures against the synthetic dataset stand-ins.
//
// Usage:
//
//	qcbench -exp all            # everything (about ten seconds)
//	qcbench -exp table2         # one experiment
//	qcbench -exp table5a -machines 1 -tlist 1,2,4
//	qcbench -exp table2 -cpuprofile cpu.pb.gz -memprofile heap.pb.gz
//	qcbench -exp table2 -machines 4 -tcp    # the same in-process cluster
//	                                        # over real loopback sockets
//	qcbench -exp table5b -procs 1 -mlist 1,2,4   # machines are qcworker
//	                                             # processes
//	qcbench -exp all -csvdir out            # raw series next to the tables
//
// Experiments: table1 table2 table3 table4 table5a table5b table6
// fig1 fig2 fig3 ablation quickmiss decomp all; any other name exits 2
//
// qcbench prints tables; everything about one mine lives in the tools
// that mine. To trace a stand-in, inject faults into it, watch its
// /metrics, time the scalar kernels or print its heaviest roots:
//
//	qcgen -type standin -name YouTube -o yt.bin    # prints its Table 2 γ, τsize
//	qcmine -input yt.bin -gamma 0.9 -minsize 16 -trace t.json -debug-addr :6060 \
//	       -faultplan ... -frame-timeout ... -dead-after ... -nosimd -rootstats 10
//
// and qcconvert -budget is the external-memory write path.
//
// -cpuprofile / -memprofile write pprof profiles of the selected
// experiments (kernel work like the mining hot loop can be profiled
// without ad-hoc patches); profiles are flushed on normal exit, not
// when an experiment fails.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"gthinkerqc/internal/experiments"
	"gthinkerqc/internal/miner"
)

func main() {
	var (
		exp        = flag.String("exp", "all", "experiment to run")
		machines   = flag.Int("machines", 1, "default machines for single-shape experiments")
		threads    = flag.Int("threads", 2, "default threads per machine")
		tlist      = flag.String("tlist", "1,2,4", "thread counts for table5a")
		mlist      = flag.String("mlist", "1,2,4", "machine counts for table5b")
		figDS      = flag.String("figure-dataset", "YouTube", "dataset for figures 1-3")
		csvDir     = flag.String("csvdir", "", "also write raw series as CSV files into this directory")
		useTCP     = flag.Bool("tcp", false, "reach the in-process machines over real loopback sockets: one listener per machine plus a batched TCP transport (remote pulls and stolen task batches cross the wire)")
		procs      = flag.Int("procs", 0, "make every cell's machines REAL qcworker OS processes (one vertex partition each, composed from a generated partition manifest over the TCP control plane), N of them unless the experiment sweeps the machine count; overrides -machines/-tcp")
		qcworker   = flag.String("qcworker", "", "path to the qcworker binary for -procs (default: next to this binary, then $PATH)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
		memprofile = flag.String("memprofile", "", "write a heap profile at exit to this file (go tool pprof)")
	)
	flag.Parse()
	cluster := experiments.Cluster{Machines: *machines, Workers: *threads, Sockets: *useTCP}
	if *procs > 0 {
		bin, err := miner.ResolveQCWorker(*qcworker)
		if err != nil {
			fmt.Fprintf(os.Stderr, "qcbench: -procs: %v\n", err)
			os.Exit(1)
		}
		cluster.Machines = *procs
		cluster.Worker = func(machine int, graphPath, manifestPath string) *exec.Cmd {
			return miner.QCWorkerCommand(bin, graphPath)(machine, manifestPath)
		}
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "qcbench: cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "qcbench: cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "qcbench: cpuprofile: %v\n", err)
			}
		}()
	}
	if *memprofile != "" {
		path := *memprofile
		defer func() {
			f, err := os.Create(path)
			if err == nil {
				runtime.GC() // settle live heap before the snapshot
				err = pprof.WriteHeapProfile(f)
				if cerr := f.Close(); err == nil {
					err = cerr
				}
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "qcbench: memprofile: %v\n", err)
			}
		}()
	}
	die := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format, args...)
		os.Exit(1)
	}
	writeCSV := func(name string, fn func(f *os.File) error) {
		if *csvDir == "" {
			return
		}
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			die("qcbench: csv: %v\n", err)
		}
		f, err := os.Create(*csvDir + "/" + name)
		if err == nil {
			err = fn(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			die("qcbench: csv %s: %v\n", name, err)
		}
	}
	w := os.Stdout

	// names lists every experiment for the unknown -exp message; ran
	// records whether -exp selected any of them ("all" selects every one).
	var names []string
	ran := false
	run := func(name string, fn func() error) {
		names = append(names, name)
		if *exp != "all" && *exp != name {
			return
		}
		ran = true
		fmt.Fprintf(w, "==== %s ====\n", name)
		if err := fn(); err != nil {
			die("qcbench: %s: %v\n", name, err)
		}
		fmt.Fprintln(w)
	}

	run("table1", func() error {
		rows, err := experiments.Table1()
		if err != nil {
			return err
		}
		experiments.PrintTable1(w, rows)
		return nil
	})
	run("table2", func() error {
		rows, err := experiments.Table2(cluster)
		if err != nil {
			return err
		}
		experiments.PrintTable2(w, rows)
		return nil
	})
	run("table3", func() error {
		g, err := experiments.Table3(cluster)
		if err != nil {
			return err
		}
		experiments.PrintGrid(w, g, "Table 3: Effect of Hyperparameters on CX_GSE10158")
		writeCSV("table3.csv", func(f *os.File) error { return experiments.WriteGridCSV(f, g) })
		return nil
	})
	run("table4", func() error {
		g, err := experiments.Table4(cluster)
		if err != nil {
			return err
		}
		experiments.PrintGrid(w, g, "Table 4: Effect of Hyperparameters on Hyves")
		writeCSV("table4.csv", func(f *os.File) error { return experiments.WriteGridCSV(f, g) })
		return nil
	})
	// scale runs one Table 5 sweep: the default cluster with one
	// dimension replaced by each entry of counts.
	scale := func(csvName, caption string, counts []int, reshape func(c *experiments.Cluster, n int)) error {
		shapes := make([]experiments.Cluster, len(counts))
		for i, n := range counts {
			shapes[i] = cluster
			reshape(&shapes[i], n)
		}
		rows, err := experiments.ScaleSweep("Enron", shapes)
		if err != nil {
			return err
		}
		experiments.PrintScale(w, rows, caption)
		writeCSV(csvName, func(f *os.File) error { return experiments.WriteScaleCSV(f, rows) })
		return nil
	}
	run("table5a", func() error {
		return scale("table5a.csv",
			fmt.Sprintf("Table 5(a): Vertical Scalability on Enron (%d machines)", cluster.Machines),
			parseInts(*tlist), func(c *experiments.Cluster, n int) { c.Workers = n })
	})
	run("table5b", func() error {
		return scale("table5b.csv",
			fmt.Sprintf("Table 5(b): Horizontal Scalability on Enron (%d threads)", cluster.Workers),
			parseInts(*mlist), func(c *experiments.Cluster, n int) { c.Machines = n })
	})
	run("table6", func() error {
		rows, err := experiments.Table6("Hyves", experiments.Table6TauTimes(), cluster)
		if err != nil {
			return err
		}
		experiments.PrintTable6(w, rows, "Hyves")
		return nil
	})

	var fig *experiments.FigureData
	figData := func() (*experiments.FigureData, error) {
		if fig != nil {
			return fig, nil
		}
		var err error
		fig, err = experiments.CollectFigureData(*figDS, cluster)
		return fig, err
	}
	run("fig1", func() error {
		f, err := figData()
		if err != nil {
			return err
		}
		experiments.PrintFigure1(w, f)
		writeCSV("tasks.csv", func(file *os.File) error { return experiments.WriteFigureCSV(file, f) })
		return nil
	})
	run("fig2", func() error {
		f, err := figData()
		if err != nil {
			return err
		}
		experiments.PrintFigure2(w, f, 100)
		return nil
	})
	run("fig3", func() error {
		f, err := figData()
		if err != nil {
			return err
		}
		experiments.PrintFigure3(w, f, 5)
		return nil
	})

	run("ablation", func() error {
		for _, ds := range []string{"CX_GSE1730", "CX_GSE10158"} {
			rows, err := experiments.AblationPruning(ds)
			if err != nil {
				return err
			}
			experiments.PrintAblation(w, rows, ds)
		}
		return nil
	})
	run("quickmiss", func() error {
		rows, err := experiments.AblationQuickMiss(
			[]string{"CX_GSE1730", "CX_GSE10158", "Ca-GrQc"})
		if err != nil {
			return err
		}
		experiments.PrintQuickMiss(w, rows)
		return nil
	})
	run("decomp", func() error {
		// Hyves at its Table-2 defaults; YouTube in the head-of-line
		// regime (τsize 24: one hard-core task dominates) with a
		// moderate τtime so decomposition overhead stays small.
		rows, err := experiments.AblationDecomposition("Hyves", cluster, 0, 0)
		if err != nil {
			return err
		}
		experiments.PrintDecomp(w, rows, "Hyves")
		rows, err = experiments.AblationDecomposition("YouTube", cluster, time.Millisecond, 24)
		if err != nil {
			return err
		}
		experiments.PrintDecomp(w, rows, "YouTube (τsize=24, τtime=1ms)")
		return nil
	})

	if !ran {
		fmt.Fprintf(os.Stderr, "qcbench: unknown -exp %q; valid: %s all\n", *exp, strings.Join(names, " "))
		os.Exit(2)
	}
}

func parseInts(s string) []int {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			fmt.Fprintf(os.Stderr, "qcbench: bad int list %q\n", s)
			os.Exit(2)
		}
		out = append(out, n)
	}
	return out
}
