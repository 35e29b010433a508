// Command qcmine mines maximal γ-quasi-cliques from a graph file.
//
// Usage:
//
//	qcmine -input graph.txt -gamma 0.9 -minsize 18 [flags]
//
// The input is either a SNAP/KONECT-style edge list (.txt) or the
// library's binary format (.bin, written by qcgen). Each output line
// is one quasi-clique as space-separated vertex IDs.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"gthinkerqc"
	"gthinkerqc/internal/metrics"
	"gthinkerqc/internal/miner"
)

func main() {
	var (
		input     = flag.String("input", "", "graph file (.txt edge list or .bin)")
		gamma     = flag.Float64("gamma", 0.9, "degree ratio threshold γ ∈ [0.5, 1]")
		minsize   = flag.Int("minsize", 10, "minimum quasi-clique size τsize")
		tausplit  = flag.Int("tausplit", 256, "big-task threshold τsplit (|ext(S)|)")
		tautime   = flag.Duration("tautime", 100*time.Millisecond, "time-delayed decomposition budget τtime")
		machines  = flag.Int("machines", 1, "simulated machines")
		threads   = flag.Int("threads", 2, "mining threads per machine")
		serial    = flag.Bool("serial", false, "use the serial miner (Section 4) instead of G-thinker")
		procs     = flag.Int("procs", 0, "coordinator mode: mine on N real qcworker OS processes (one vertex partition each) spawned from a generated partition manifest")
		qcworker  = flag.String("qcworker", "", "path to the qcworker binary for -procs (default: next to this binary, then $PATH)")
		sizeOnly  = flag.Bool("size-threshold", false, "use size-threshold decomposition (Algorithm 8) instead of time-delayed (Algorithm 10)")
		keepAll   = flag.Bool("keep-nonmaximal", false, "skip the maximality post-filter (mirrors the paper's released code)")
		frameTO   = flag.Duration("frame-timeout", 0, "cluster frame-exchange deadline (0 = default 30s, negative disables)")
		deadAfter = flag.Int("dead-after", 0, "consecutive failed status polls before a worker is declared dead (0 = default 5)")
		faultPlan = flag.String("faultplan", "", "seeded fault-injection plan for chaos testing, e.g. '7:dialfail=0.1,kill=1@3'")
		tracePath = flag.String("trace", "", "record an execution timeline and write it as Chrome trace-event JSON to this file (load in Perfetto); cluster runs merge every worker's spans")
		debugAddr = flag.String("debug-addr", "", "serve live /metrics, /healthz, expvar, and pprof on this address during the run (e.g. :6060, or :0 for a dynamic port)")
		rootStats = flag.Int("rootstats", 0, "print the N heaviest root tasks (by attributed mining time) to stderr after the run")
		output    = flag.String("o", "", "result file (default stdout)")
		quiet     = flag.Bool("q", false, "suppress the stats summary on stderr")
	)
	flag.Parse()
	if *input == "" {
		fmt.Fprintln(os.Stderr, "qcmine: -input is required")
		flag.Usage()
		os.Exit(2)
	}

	g, closeGraph, err := loadGraph(*input)
	if err != nil {
		fatal(err)
	}
	defer closeGraph()
	cfg := gthinkerqc.Config{
		Gamma: *gamma, MinSize: *minsize,
		TauSplit: *tausplit, TauTime: *tautime,
		SizeThresholdOnly: *sizeOnly,
		Machines:          *machines, WorkersPerMachine: *threads,
		KeepNonMaximal: *keepAll,
		FrameTimeout:   *frameTO,
		DeadAfterPolls: *deadAfter,
		FaultPlan:      *faultPlan,
		TracePath:      *tracePath,
		DebugAddr:      *debugAddr,
	}
	var res *gthinkerqc.Result
	switch {
	case *serial:
		res, err = gthinkerqc.MineSerial(g, cfg)
	case *procs > 0:
		res, err = mineCluster(g, cfg, *input, *procs, *qcworker)
	default:
		res, err = gthinkerqc.MineParallel(g, cfg)
	}
	if err != nil {
		fatal(err)
	}

	out := os.Stdout
	if *output != "" {
		f, err := os.Create(*output)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		out = f
	}
	bw := bufio.NewWriter(out)
	for _, qc := range res.Cliques {
		parts := make([]string, len(qc))
		for i, v := range qc {
			parts[i] = fmt.Sprint(v)
		}
		fmt.Fprintln(bw, strings.Join(parts, " "))
	}
	if err := bw.Flush(); err != nil {
		fatal(err)
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "qcmine: |V|=%d |E|=%d γ=%.2f τsize=%d → %d quasi-cliques (%d candidates) in %v\n",
			g.NumVertices(), g.NumEdges(), *gamma, *minsize,
			len(res.Cliques), res.Candidates, res.Wall.Round(time.Millisecond))
		if res.Engine != nil {
			fmt.Fprintf(os.Stderr, "qcmine: engine: %v\n", res.Engine)
		}
	}
	if *rootStats > 0 {
		var top []metrics.RootStat
		if res.Tasks != nil {
			top = res.Tasks.TopK(*rootStats)
		}
		if len(top) == 0 {
			fmt.Fprintln(os.Stderr, "qcmine: -rootstats: no per-root statistics on this path (serial run)")
		} else {
			fmt.Fprintf(os.Stderr, "qcmine: top %d roots by mining time (total mining %v, materialize %v)\n",
				len(top), res.Tasks.TotalMining().Round(time.Microsecond),
				res.Tasks.TotalMaterialize().Round(time.Microsecond))
			metrics.WriteRootTable(os.Stderr, top)
		}
	}
}

// mineCluster runs the coordinator mode: the graph is materialized as
// a binary file (reused verbatim for .bin inputs, converted once for
// edge lists), n qcworker processes are spawned against a generated
// partition manifest, and this process coordinates the run.
func mineCluster(g *gthinkerqc.Graph, cfg gthinkerqc.Config, input string, n int, qcworkerPath string) (*gthinkerqc.Result, error) {
	bin, err := miner.ResolveQCWorker(qcworkerPath)
	if err != nil {
		return nil, err
	}
	graphPath := input
	if !strings.HasSuffix(input, ".bin") {
		dir, err := os.MkdirTemp("", "qcmine-procs-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		graphPath = filepath.Join(dir, "graph.bin")
		if err := gthinkerqc.SaveBinaryFile(graphPath, g); err != nil {
			return nil, err
		}
	}
	cfg.Machines = n
	return gthinkerqc.MineCluster(context.Background(), cfg, gthinkerqc.ClusterOptions{
		GraphPath:     graphPath,
		WorkerCommand: miner.QCWorkerCommand(bin, graphPath),
	})
}

// loadGraph maps a .bin file or parses an edge list. The returned
// close releases the mapping; the graph must not be used after it.
func loadGraph(path string) (*gthinkerqc.Graph, func() error, error) {
	if strings.HasSuffix(path, ".bin") {
		mg, err := gthinkerqc.MapBinaryFile(path)
		if err != nil {
			return nil, nil, err
		}
		return mg.Graph(), mg.Close, nil
	}
	g, err := gthinkerqc.LoadEdgeListFile(path)
	return g, func() error { return nil }, err
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "qcmine:", err)
	os.Exit(1)
}
