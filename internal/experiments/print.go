package experiments

import (
	"fmt"
	"io"
	"time"

	"gthinkerqc/internal/metrics"
)

func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d)/1e6)
	default:
		return fmt.Sprintf("%.1fµs", float64(d)/1e3)
	}
}

func fmtBytes(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.2fGB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}

// PrintTable1 renders the dataset inventory.
func PrintTable1(w io.Writer, rows []Table1Row) {
	fmt.Fprintf(w, "Table 1: Graph Datasets (stand-ins; paper scale in parentheses)\n")
	fmt.Fprintf(w, "%-13s %10s %10s %14s %14s  %s\n", "Data", "|V|", "|E|", "(paper |V|)", "(paper |E|)", "note")
	for _, r := range rows {
		fmt.Fprintf(w, "%-13s %10d %10d %14d %14d  %s\n",
			r.Name, r.V, r.E, r.PaperV, r.PaperE, r.ScaleNote)
	}
}

// PrintTable2 renders the per-dataset results overview.
func PrintTable2(w io.Writer, rows []Table2Row) {
	fmt.Fprintf(w, "Table 2: Results on All Datasets\n")
	fmt.Fprintf(w, "%-13s %6s %5s %8s %9s %10s %9s %9s %9s %9s\n",
		"Data", "τsize", "γ", "τsplit", "τtime", "Time", "RAM", "Disk", "Result#", "Maximal#")
	for _, r := range rows {
		fmt.Fprintf(w, "%-13s %6d %5.2f %8d %9s %10s %9s %9s %9d %9d\n",
			r.Name, r.MinSize, r.Gamma, r.TauSplit, fmtDur(r.TauTime),
			fmtDur(r.Time), fmtBytes(int64(r.RAM)), fmtBytes(r.Disk),
			r.Results, r.Maximal)
	}
}

// PrintGrid renders a τtime × τsplit sweep (Tables 3 and 4).
func PrintGrid(w io.Writer, g *Grid, caption string) {
	fmt.Fprintf(w, "%s — dataset %s\n", caption, g.Dataset)
	fmt.Fprintf(w, "(a) Running Time\n%10s", "τtime\\τsplit")
	for _, ts := range g.TauSplits {
		fmt.Fprintf(w, " %9d", ts)
	}
	fmt.Fprintln(w)
	for i, tt := range g.TauTimes {
		fmt.Fprintf(w, "%10s", fmtDur(tt))
		for j := range g.TauSplits {
			fmt.Fprintf(w, " %9s", fmtDur(g.Time[i][j]))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "(b) Number of Quasi-Cliques Mined (unfiltered, as in the paper)\n%10s", "τtime\\τsplit")
	for _, ts := range g.TauSplits {
		fmt.Fprintf(w, " %9d", ts)
	}
	fmt.Fprintln(w)
	for i, tt := range g.TauTimes {
		fmt.Fprintf(w, "%10s", fmtDur(tt))
		for j := range g.TauSplits {
			fmt.Fprintf(w, " %9d", g.Results[i][j])
		}
		fmt.Fprintln(w)
	}
}

// PrintScale renders a scalability table (Table 5a/5b). speedup is
// against the first row; busy is ScaleRow.BusyFraction.
func PrintScale(w io.Writer, rows []ScaleRow, caption string) {
	fmt.Fprintf(w, "%s\n", caption)
	fmt.Fprintf(w, "%9s %9s %10s %9s %9s %12s %10s %8s %8s %6s\n",
		"Machines", "Threads", "Time", "RAM", "Disk", "TotalBusy", "Imbalance", "Stolen", "speedup", "busy")
	for i, r := range rows {
		fmt.Fprintf(w, "%9d %9d %10s %9s %9s %12s %10.2f %8d %8.2f %6.2f\n",
			r.Machines, r.Workers, fmtDur(r.Time), fmtBytes(int64(r.RAM)),
			fmtBytes(r.Disk), fmtDur(r.TotalBusy), r.Imbalance, r.Stolen,
			Speedup(rows, i), r.BusyFraction())
	}
}

// PrintTable6 renders the decomposition-overhead table.
func PrintTable6(w io.Writer, rows []Table6Row, dataset string) {
	fmt.Fprintf(w, "Table 6: Mining vs. Subgraph Materialization on %s\n", dataset)
	fmt.Fprintf(w, "%10s %10s %14s %16s %12s %10s\n",
		"τtime", "Job Time", "Total Mining", "Total Material.", "Mining:Mat.", "Subtasks")
	for _, r := range rows {
		ratio := "—" // no decomposition happened: no overhead at all
		if r.TotalMater > 0 {
			ratio = fmt.Sprintf("%.2f", r.Ratio)
		}
		fmt.Fprintf(w, "%10s %10s %14s %16s %12s %10d\n",
			fmtDur(r.TauTime), fmtDur(r.JobTime), fmtDur(r.TotalMining),
			fmtDur(r.TotalMater), ratio, r.Subtasks)
	}
}

// PrintFigure1 renders the task-time histogram.
func PrintFigure1(w io.Writer, f *FigureData) {
	fmt.Fprintf(w, "Figure 1: Time of All Tasks Spawned by Unpruned Vertices (%s, %d tasks)\n",
		f.Dataset, len(f.Roots))
	bins := f.Figure1()
	for _, b := range bins {
		label := ">= 10s"
		if b.Upper != 0 {
			label = "< " + fmtDur(b.Upper)
		}
		bar := ""
		for i := 0; i < b.Count && i < 60; i++ {
			bar += "#"
		}
		fmt.Fprintf(w, "%12s %8d %s\n", label, b.Count, bar)
	}
}

// PrintFigure2 renders the top-k task times.
func PrintFigure2(w io.Writer, f *FigureData, k int) {
	fmt.Fprintf(w, "Figure 2: Time of Top-%d Tasks on %s\n", k, f.Dataset)
	metrics.WriteRootTable(w, f.Figure2(k))
}

// PrintFigure3 renders the comparable-size / divergent-time cohorts.
func PrintFigure3(w io.Writer, f *FigureData, n int) {
	slow, fast := f.Figure3Cohorts(n)
	fmt.Fprintf(w, "Figure 3: Running Time and Subgraph Size of Some Tasks (%s)\n", f.Dataset)
	fmt.Fprintf(w, "%-32s | %s\n", "cheap tasks (comparable |V|)", "expensive tasks")
	fmt.Fprintf(w, "%10s %10s %10s | %10s %10s %10s\n",
		"|V(g)|", "time", "root", "|V(g)|", "time", "root")
	rows := len(slow)
	if len(fast) > rows {
		rows = len(fast)
	}
	for i := 0; i < rows; i++ {
		l, r := "", ""
		if i < len(fast) {
			l = fmt.Sprintf("%10d %10s %10d", fast[i].SubSize, fmtDur(fast[i].Mining), fast[i].Root)
		} else {
			l = fmt.Sprintf("%32s", "")
		}
		if i < len(slow) {
			r = fmt.Sprintf("%10d %10s %10d", slow[i].SubSize, fmtDur(slow[i].Mining), slow[i].Root)
		}
		fmt.Fprintf(w, "%s | %s\n", l, r)
	}
}

// PrintAblation renders pruning-rule ablations; time is the median of
// warm runs.
func PrintAblation(w io.Writer, rows []AblationRow, dataset string) {
	fmt.Fprintf(w, "Ablation: pruning rules on %s (serial; time is the median of %d warm runs)\n", dataset, ablationRuns)
	fmt.Fprintf(w, "%-32s %10s %9s %12s %12s %9s\n", "variant", "time", "ns/node", "tree nodes", "candidates", "results")
	for _, r := range rows {
		fmt.Fprintf(w, "%-32s %10s %9.0f %12d %12d %9d\n",
			r.Variant, fmtDur(r.Time), r.NsPerNode(), r.Nodes, r.Candidates, r.Results)
	}
}

// PrintDecomp renders decomposition-strategy ablations.
func PrintDecomp(w io.Writer, rows []DecompRow, dataset string) {
	fmt.Fprintf(w, "Ablation: decomposition strategy on %s\n", dataset)
	fmt.Fprintf(w, "%-34s %10s %10s %10s %10s\n", "variant", "time", "subtasks", "imbalance", "mat.%")
	for _, r := range rows {
		fmt.Fprintf(w, "%-34s %10s %10d %10.2f %9.2f%%\n",
			r.Variant, fmtDur(r.Time), r.Subtasks, r.Imbalance, r.MaterPct)
	}
}

// PrintQuickMiss renders the Quick-compat missed-result counts.
func PrintQuickMiss(w io.Writer, rows []QuickMissRow) {
	fmt.Fprintf(w, "Ablation: results missed by the original Quick algorithm's skipped checks\n")
	fmt.Fprintf(w, "%-13s %8s %8s %8s\n", "dataset", "full", "quick", "missed")
	for _, r := range rows {
		fmt.Fprintf(w, "%-13s %8d %8d %8d\n", r.Dataset, r.Full, r.Quick, r.Missed)
	}
}

// histBinsTotal is a small helper for tests.
func histBinsTotal(bins []metrics.HistBin) int {
	t := 0
	for _, b := range bins {
		t += b.Count
	}
	return t
}
