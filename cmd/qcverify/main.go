// Command qcverify checks a result file produced by qcmine against the
// graph: every line must be a valid γ-quasi-clique of at least τsize
// vertices; sets contained in other result sets are flagged as
// non-maximal, and sets extensible by one vertex are flagged as
// certainly-not-maximal. (Deciding full maximality is NP-hard [32];
// one-step extensibility is the cheap necessary condition.)
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"

	"gthinkerqc"
	"gthinkerqc/internal/quasiclique"
)

func main() {
	var (
		input   = flag.String("input", "", "graph file (.txt edge list or .bin)")
		results = flag.String("results", "", "result file (one quasi-clique per line)")
		gamma   = flag.Float64("gamma", 0.9, "degree ratio threshold γ")
		minsize = flag.Int("minsize", 10, "minimum size τsize")
		extend  = flag.Bool("check-extensible", false, "also test one-vertex extensibility (slow)")
	)
	flag.Parse()
	if *input == "" || *results == "" {
		fmt.Fprintln(os.Stderr, "qcverify: -input and -results are required")
		os.Exit(2)
	}
	var g *gthinkerqc.Graph
	var err error
	if strings.HasSuffix(*input, ".bin") {
		var mg *gthinkerqc.MappedGraph
		if mg, err = gthinkerqc.MapBinaryFile(*input); err == nil {
			defer mg.Close()
			g = mg.Graph()
		}
	} else {
		g, err = gthinkerqc.LoadEdgeListFile(*input)
	}
	if err != nil {
		fatal(err)
	}

	f, err := os.Open(*results)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	var sets [][]gthinkerqc.V
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		var S []gthinkerqc.V
		for _, fld := range strings.Fields(text) {
			id, err := strconv.ParseUint(fld, 10, 32)
			if err != nil {
				fatal(fmt.Errorf("line %d: %v", line, err))
			}
			S = append(S, gthinkerqc.V(id))
		}
		slices.Sort(S)
		sets = append(sets, S)
	}
	if err := sc.Err(); err != nil {
		fatal(err)
	}

	invalid, small, dup := 0, 0, 0
	seen := map[string]bool{}
	for i, S := range sets {
		if len(S) < *minsize {
			small++
			fmt.Printf("line %d: size %d < τsize %d\n", i+1, len(S), *minsize)
		}
		if !gthinkerqc.IsQuasiClique(g, S, *gamma) {
			invalid++
			fmt.Printf("line %d: NOT a %.2f-quasi-clique: %v\n", i+1, *gamma, S)
		}
		k := fmt.Sprint(S)
		if seen[k] {
			dup++
		}
		seen[k] = true
	}
	maximal := gthinkerqc.FilterMaximal(sets)
	nonMax := len(sets) - dup - len(maximal)

	extensible := 0
	if *extend {
		for _, S := range maximal {
			if quasiclique.OneStepExtensible(g, S, *gamma) {
				extensible++
				fmt.Printf("extensible (not maximal): %v\n", S)
			}
		}
	}

	fmt.Printf("qcverify: %d sets | invalid: %d | undersized: %d | duplicates: %d | contained in another result: %d",
		len(sets), invalid, small, dup, nonMax)
	if *extend {
		fmt.Printf(" | 1-extensible: %d", extensible)
	}
	fmt.Println()
	if invalid > 0 || small > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "qcverify:", err)
	os.Exit(1)
}
