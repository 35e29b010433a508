package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// Verdicts of a comparison, in rising order of severity.
const (
	unchanged  = "unchanged"
	unresolved = "unresolved" // spread between runs wider than the bound
	regressed  = "regressed"
)

// readReports loads a file of report lines, as -out writes them.
func readReports(path string) ([]report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var reps []report
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r report
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		reps = append(reps, r)
	}
	return reps, sc.Err()
}

// quartiles returns the three cut points of xs the way Python's
// statistics.quantiles(xs, n=4) does, so that a spread computed here
// is the spread the driver computes.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		pos := float64(i*(n+1)) / 4
		j := min(max(int(pos), 1), n-1)
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return cut(1), cut(2), cut(3)
}

// series collects metric → values over the reports of one workload
// and one kind of run.
func series(reps []report, workload string, trace bool) map[string][]float64 {
	out := map[string][]float64{}
	for _, r := range reps {
		if r.Workload == workload && r.Trace == trace {
			for name, v := range r.Metrics {
				out[name] = append(out[name], v.Value)
			}
		}
	}
	return out
}

// compareFiles prints, per workload and end-to-end metric, both
// sides' median and quartiles and the metric's bound, then one verdict
// row per workload. It reports whether anything regressed: a median
// worse than the bound allows, a failed operation, or an exact count
// that differs between or within the files.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := readReports(pathA)
	if err != nil {
		return false, err
	}
	b, err := readReports(pathB)
	if err != nil {
		return false, err
	}
	all := append(append([]report(nil), a...), b...)
	rank := map[string]int{unchanged: 0, unresolved: 1, regressed: 2}
	var rows []string
	any := false
	for _, wl := range workloads {
		ea, eb := series(a, wl.Name, false), series(b, wl.Name, false)
		if len(ea) == 0 || len(eb) == 0 {
			continue
		}
		verdict := unchanged
		fmt.Fprintf(w, "%s\n", wl.Name)
		for _, def := range endToEnd {
			q1a, ma, q3a := quartiles(ea[def.Name])
			q1b, mb, q3b := quartiles(eb[def.Name])
			worse := (mb - ma) / ma
			if def.Better == "higher" {
				worse = -worse
			}
			v := unchanged
			switch {
			case worse > def.Bound:
				v = regressed
			case (q3a-q1a)/ma > def.Bound || (q3b-q1b)/mb > def.Bound:
				v = unresolved
			}
			if rank[v] > rank[verdict] {
				verdict = v
			}
			fmt.Fprintf(w, "  %-12s a %10.4g [%.4g, %.4g] n=%d   b %10.4g [%.4g, %.4g] n=%d   worse by %+.1f%% (bound %.0f%%)  %s\n",
				def.Name, ma, q1a, q3a, len(ea[def.Name]), mb, q1b, q3b, len(eb[def.Name]), 100*worse, 100*def.Bound, v)
		}
		for _, r := range all {
			if r.Workload == wl.Name && (r.Failed > 0 || !r.Correct) {
				fmt.Fprintf(w, "  seed %d: %d of %d operations failed, correct=%v\n", r.Seed, r.Failed, r.Attempted, r.Correct)
				verdict = regressed
			}
		}
		for _, def := range perLayer {
			if !def.exactOn(wl.Name) {
				continue
			}
			first := map[uint64]float64{} // by seed
			for _, r := range all {
				v, ok := r.Metrics[def.Name]
				if r.Workload != wl.Name || !r.Trace || !ok {
					continue
				}
				if want, seen := first[r.Seed]; seen && v.Value != want {
					fmt.Fprintf(w, "  %s on seed %d: %v in one traced run, %v in another\n", def.Name, r.Seed, want, v.Value)
					verdict = regressed
				}
				first[r.Seed] = v.Value
			}
		}
		rows = append(rows, fmt.Sprintf("%-20s %s", wl.Name, verdict))
		any = any || verdict == regressed
	}
	if len(rows) == 0 {
		return false, fmt.Errorf("%s and %s share no workload", pathA, pathB)
	}
	fmt.Fprintln(w)
	for _, row := range rows {
		fmt.Fprintln(w, row)
	}
	return any, nil
}
