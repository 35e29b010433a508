// Command qcstats summarizes a graph: size, degree distribution and
// core decomposition. Useful for choosing γ and τsize before mining:
// the paper's Theorem 2 prunes every vertex of degree < ⌈γ(τsize−1)⌉,
// so the pruning preview's k-core size predicts how much of the graph
// a parameter choice removes.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"gthinkerqc"
	"gthinkerqc/internal/graph"
	"gthinkerqc/internal/kcore"
	"gthinkerqc/internal/quasiclique"
)

func main() {
	var (
		input   = flag.String("input", "", "graph file (.txt edge list or .bin)")
		gamma   = flag.Float64("gamma", 0.9, "γ for the pruning preview")
		minsize = flag.Int("minsize", 10, "τsize for the pruning preview")
	)
	flag.Parse()
	if *input == "" {
		fmt.Fprintln(os.Stderr, "qcstats: -input is required")
		os.Exit(2)
	}
	var g *gthinkerqc.Graph
	var err error
	if strings.HasSuffix(*input, ".bin") {
		g, err = gthinkerqc.LoadBinaryFile(*input)
	} else {
		g, err = gthinkerqc.LoadEdgeListFile(*input)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "qcstats:", err)
		os.Exit(1)
	}

	st := graph.ComputeStats(g)
	fmt.Printf("graph: %s\n", st)

	// Degree distribution in powers of two.
	hist := graph.DegreeHistogram(g)
	fmt.Println("degree distribution:")
	printLogHist(hist)

	cores := kcore.CoreNumbers(g)
	// Pruning preview (Theorem 2): the k-core is every vertex of core
	// number at least k.
	k := quasiclique.CeilMul(*gamma, *minsize-1)
	maxCore, kept := 0, 0
	for _, c := range cores {
		maxCore = max(maxCore, c)
		if c >= k {
			kept++
		}
	}
	fmt.Printf("degeneracy (max core): %d\n", maxCore)
	fmt.Printf("pruning preview: γ=%.2f τsize=%d ⇒ k=%d; k-core keeps %d/%d vertices (%.1f%%)\n",
		*gamma, *minsize, k, kept, g.NumVertices(),
		100*float64(kept)/float64(max(1, g.NumVertices())))
}

func printLogHist(hist []int) {
	// Collapse into [0], [1], [2-3], [4-7], ... buckets.
	type bucket struct {
		lo, hi, n int
	}
	var buckets []bucket
	buckets = append(buckets, bucket{0, 0, 0}, bucket{1, 1, 0})
	for lo := 2; lo < len(hist); lo *= 2 {
		buckets = append(buckets, bucket{lo, lo*2 - 1, 0})
	}
	for d, c := range hist {
		for i := range buckets {
			if d >= buckets[i].lo && d <= buckets[i].hi {
				buckets[i].n += c
				break
			}
		}
	}
	maxN := 0
	for _, b := range buckets {
		if b.n > maxN {
			maxN = b.n
		}
	}
	for _, b := range buckets {
		if b.n == 0 {
			continue
		}
		label := fmt.Sprintf("%d", b.lo)
		if b.hi != b.lo {
			label = fmt.Sprintf("%d-%d", b.lo, b.hi)
		}
		bar := strings.Repeat("#", int(40*float64(b.n)/float64(maxN)))
		fmt.Printf("  deg %-12s %8d %s\n", label, b.n, bar)
	}
}
