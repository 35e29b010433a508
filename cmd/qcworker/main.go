// Command qcworker serves ONE machine of a distributed quasi-clique
// mining cluster: it mmaps a binary graph file (GQC2), validates it
// against the partition manifest, and hosts a single machine runtime
// behind one listener — control frames from the coordinator,
// adjacency and stolen-task frames from its peers — until the
// coordinator tells it to exit.
//
// Usage:
//
//	qcworker -graph graph.gqc -manifest cluster.gqm -machine 2
//
// On startup it prints
//
//	GTHINKER-WORKER READY addr=<addr>
//
// on stdout; the coordinator (qcmine -procs, or any ClusterClient)
// dials that address, sends the join carrying the engine configuration
// and every machine's address, and drives the run. The worker binds
// the address named in its manifest row, or a dynamic 127.0.0.1 port
// when the row is empty (the single-host flow).
//
// Everything else comes from the coordinator: the join carries the
// engine shape, tracing and the fault plan, and each job's spec its
// mining parameters (qcmine -trace collects every worker's spans into
// one timeline; qcmine -faultplan reaches every worker, and kill=M@N
// aims at one machine). The one flag beyond the three above is
// -debug-addr, which serves this process's live /metrics, /healthz,
// expvar, and pprof over HTTP while it mines.
//
// Everything this process executes — scheduling, spilling, stealing,
// termination — is the same MachineRuntime the in-process engine
// composes; the only difference is that here the cluster's other
// machines really are other processes.
package main

import (
	"flag"
	"fmt"
	"os"

	"gthinkerqc/internal/gthinker"
	"gthinkerqc/internal/miner"
	"gthinkerqc/internal/obs"
)

func main() {
	var (
		graphPath    = flag.String("graph", "", "binary graph file (GQC2, written by qcgen/qcmine)")
		manifestPath = flag.String("manifest", "", "partition manifest file (GQM3: machine count, graph fingerprint, one address per machine)")
		machine      = flag.Int("machine", -1, "machine id this process serves")
		debugAddr    = flag.String("debug-addr", "", "serve /metrics, /healthz, expvar, and pprof on this address (e.g. :6061)")
	)
	flag.Parse()
	if *graphPath == "" || *manifestPath == "" || *machine < 0 {
		fmt.Fprintln(os.Stderr, "qcworker: -graph, -manifest, and -machine are required")
		flag.Usage()
		os.Exit(2)
	}
	host, cleanup, err := miner.HostWorker(*graphPath, *manifestPath, *machine)
	if err != nil {
		fmt.Fprintln(os.Stderr, "qcworker:", err)
		os.Exit(1)
	}
	if *debugAddr != "" {
		ds, err := obs.StartDebugServer(*debugAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "qcworker:", err)
			os.Exit(1)
		}
		defer ds.Close()
		ds.AddSource(func() []obs.Sample {
			// The runtime exists only after the coordinator's join; an
			// early scrape sees no series, not an error.
			rt := host.Runtime()
			if rt == nil {
				return nil
			}
			return rt.Samples()
		})
		fmt.Fprintf(os.Stderr, "qcworker: debug server listening on http://%s\n", ds.Addr())
	}
	gthinker.PrintWorkerReady(os.Stdout, host)
	host.WaitExit()
	cleanup()
}
