// Command qcserved serves quasi-clique queries over one graph.
//
// Usage:
//
//	qcserved -graph graph.bin [-addr :7700] [-procs N] [flags]
//
// The process loads (for .bin: memory-maps) the graph once, deploys a
// mining cluster once — in-process workers by default, N real
// qcworker OS processes with -procs N — and then answers any number
// of parameterized queries over HTTP until stopped:
//
//	curl -d '{"gamma":0.9,"min_size":10}' http://localhost:7700/v1/jobs
//	curl http://localhost:7700/v1/jobs/j1
//	curl http://localhost:7700/v1/jobs/j1/results
//	curl -X DELETE http://localhost:7700/v1/jobs/j1
//
// Jobs queue behind a priority+FIFO queue (the cluster mines one
// at a time), respect per-job wall-clock budgets, and repeat queries
// are answered from an LRU result cache.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"gthinkerqc"
	"gthinkerqc/internal/gthinker"
	"gthinkerqc/internal/miner"
	"gthinkerqc/internal/serve"
)

func main() {
	var (
		graphPath = flag.String("graph", "", "graph file (.txt edge list or .bin; .bin is memory-mapped)")
		addr      = flag.String("addr", "127.0.0.1:7700", "HTTP listen address (use :0 for a dynamic port)")
		procs     = flag.Int("procs", 0, "mine on N real qcworker OS processes (0 = in-process workers)")
		qcworker  = flag.String("qcworker", "", "path to the qcworker binary for -procs (default: next to this binary, then $PATH)")
		machines  = flag.Int("machines", 1, "simulated machines for in-process mode")
		threads   = flag.Int("threads", 2, "mining threads per machine")
		quota     = flag.Int("quota", 16, "max jobs in flight (queued + running); beyond it submissions get 429")
		cacheSize = flag.Int("cache", 128, "result cache capacity in queries (-1 disables caching)")
		budget    = flag.Duration("default-budget", 0, "wall-clock budget applied to jobs that do not set one (0 = unlimited)")
		quiet     = flag.Bool("q", false, "suppress startup/shutdown logging on stderr")
	)
	flag.Parse()
	if *graphPath == "" {
		fmt.Fprintln(os.Stderr, "qcserved: -graph is required")
		flag.Usage()
		os.Exit(2)
	}

	logf := func(format string, args ...any) {
		if !*quiet {
			fmt.Fprintf(os.Stderr, "qcserved: "+format+"\n", args...)
		}
	}

	// One graph for the process's lifetime. Binary graphs are mapped,
	// not copied: many concurrent jobs share the same pages, and in
	// -procs mode the coordinator only needs the fingerprint anyway.
	var g *gthinkerqc.Graph
	binPath := *graphPath
	if strings.HasSuffix(*graphPath, ".bin") {
		mg, err := gthinkerqc.MapBinaryFile(*graphPath)
		if err != nil {
			fatal(err)
		}
		defer mg.Close()
		g = mg.Graph()
	} else {
		eg, err := gthinkerqc.LoadEdgeListFile(*graphPath)
		if err != nil {
			fatal(err)
		}
		g = eg
		if *procs > 0 {
			// Worker processes map a binary file; convert the edge list
			// once per server start, not once per job.
			dir, err := os.MkdirTemp("", "qcserved-")
			if err != nil {
				fatal(err)
			}
			defer os.RemoveAll(dir)
			binPath = filepath.Join(dir, "graph.bin")
			if err := gthinkerqc.SaveBinaryFile(binPath, g); err != nil {
				fatal(err)
			}
		}
	}

	absPath, err := filepath.Abs(*graphPath)
	if err != nil {
		absPath = *graphPath
	}

	ecfg := gthinker.Config{Machines: *machines, WorkersPerMachine: *threads}
	// One session either way; -procs only moves its machines out of
	// this process.
	var session *miner.Session
	if *procs > 0 {
		bin, err := miner.ResolveQCWorker(*qcworker)
		if err != nil {
			fatal(err)
		}
		ecfg.Machines = *procs
		session, err = miner.StartProcsPool(ecfg, miner.ProcsConfig{
			GraphPath: binPath,
			Command:   miner.QCWorkerCommand(bin, binPath),
		})
		if err != nil {
			fatal(err)
		}
		logf("deployed %d qcworker processes", *procs)
	} else {
		session = miner.NewSession(g, ecfg)
	}

	server := serve.NewServer(serve.Config{
		Backend:       session,
		Fingerprint:   fmt.Sprintf("%s:%d:%d", absPath, g.NumVertices(), g.NumEdges()),
		Quota:         *quota,
		CacheSize:     *cacheSize,
		DefaultBudget: *budget,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	logf("|V|=%d |E|=%d, serving on http://%s", g.NumVertices(), g.NumEdges(), ln.Addr())

	// Bound what a slow or stalled client can hold: its request headers
	// and its idle keep-alive connection. Response writes stay unbounded
	// — a result stream is as long as the result set.
	httpSrv := &http.Server{
		Handler:           server.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
		logf("shutting down")
	case err := <-errc:
		fatal(err)
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	httpSrv.Shutdown(shutCtx)
	if err := server.Close(); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "qcserved:", err)
	os.Exit(1)
}
