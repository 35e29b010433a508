// Command qcconvert prepares mining inputs: it converts a text edge
// list (SNAP/KONECT style "u v" lines) into the binary GQC2 format
// that qcmine, qcworker, and qcserved map directly, using an
// external-memory sort so the input may be far larger than RAM.
// The text is parsed in one serial pass (graph.ScanEdgeList), and the
// output is byte-identical to graph.LoadEdgeList + graph.WriteBinary.
//
// Usage:
//
//	qcconvert -in soc-LiveJournal.txt -out lj.gqc -budget 512m
//
// The memory budget bounds the edge sort buffer (8 bytes per directed
// entry); temp runs are spilled next to the output file (override with
// -tmp) and k-way merged straight into the GQC2 layout. Only the
// vertex table — the dense-ID remap and the offsets array — must fit
// in memory, so edge count is bounded by disk, not RAM.
//
// With -ids the original vertex IDs are written (one per line, dense
// ID = line number) so results can be mapped back to the input's
// numbering. -keepids does no remap, so -ids with -keepids is refused
// before any input is read.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"gthinkerqc/internal/graph"
	"gthinkerqc/internal/store"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("qcconvert: ")
	var (
		in       = flag.String("in", "", "input edge list (\"-\" for stdin)")
		out      = flag.String("out", "", "output GQC2 file")
		budget   = flag.String("budget", "256m", "sort memory budget (bytes; k/m/g suffixes)")
		tmp      = flag.String("tmp", "", "directory for sorted temp runs (default: output dir)")
		keepIDs  = flag.Bool("keepids", false, "keep raw vertex IDs (graph sized to max ID + 1)")
		comments = flag.String("comments", "", "comma-separated comment prefixes (default \"#,%\")")
		idsOut   = flag.String("ids", "", "also write the dense->original ID table to this file")
		quiet    = flag.Bool("q", false, "suppress the summary line")
	)
	flag.Parse()
	if *in == "" || *out == "" {
		flag.Usage()
		os.Exit(2)
	}
	if *idsOut != "" && *keepIDs {
		log.Fatal("-ids is meaningless with -keepids (no remap happens)")
	}
	budgetBytes, err := parseBytes(*budget)
	if err != nil {
		log.Fatalf("-budget: %v", err)
	}
	var r io.Reader
	if *in == "-" {
		r = os.Stdin
	} else {
		f, err := os.Open(*in)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		r = f
	}
	lopt := graph.LoadOptions{KeepIDs: *keepIDs}
	if *comments != "" {
		lopt.Comments = strings.Split(*comments, ",")
	}
	start := time.Now()
	stats, orig, err := store.ConvertEdgeList(r, *out, lopt, store.ConvertOptions{
		MemoryBudget: budgetBytes,
		TempDir:      *tmp,
	})
	if err != nil {
		log.Fatal(err)
	}
	if *idsOut != "" {
		if err := writeIDs(*idsOut, orig); err != nil {
			log.Fatal(err)
		}
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "qcconvert: %s: %d vertices, %d edges, %d runs (%.1f MiB spilled) in %v\n",
			*out, stats.NumVertices, stats.NumEdges, stats.Runs,
			float64(stats.RunBytes)/(1<<20), time.Since(start).Round(time.Millisecond))
	}
}

// parseBytes parses "512", "64k", "256m", "2g" (case-insensitive).
func parseBytes(s string) (int64, error) {
	s = strings.ToLower(strings.TrimSpace(s))
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "k"):
		mult, s = 1<<10, s[:len(s)-1]
	case strings.HasSuffix(s, "m"):
		mult, s = 1<<20, s[:len(s)-1]
	case strings.HasSuffix(s, "g"):
		mult, s = 1<<30, s[:len(s)-1]
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("bad size %q", s)
	}
	return v * mult, nil
}

func writeIDs(path string, orig []int64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	for _, id := range orig {
		fmt.Fprintf(bw, "%d\n", id)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
