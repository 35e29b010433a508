package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// CSV exporters so the figure/table series can be plotted externally
// (qcbench -csvdir writes them next to the textual tables).

// WriteFigureCSV emits one row per spawned task: root, subgraph size,
// mining nanoseconds, materialization nanoseconds, subtasks — the raw
// series behind Figures 1–3.
func WriteFigureCSV(w io.Writer, f *FigureData) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"root", "subgraph_vertices", "mining_ns", "materialize_ns", "subtasks"}); err != nil {
		return err
	}
	for _, s := range f.Roots {
		rec := []string{
			strconv.FormatUint(uint64(s.Root), 10),
			strconv.Itoa(s.SubSize),
			strconv.FormatInt(int64(s.Mining), 10),
			strconv.FormatInt(int64(s.Materialize), 10),
			strconv.Itoa(s.Subtasks),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteGridCSV emits the τtime × τsplit sweep as long-format rows.
func WriteGridCSV(w io.Writer, g *Grid) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"dataset", "tau_time_ns", "tau_split", "time_ns", "results"}); err != nil {
		return err
	}
	for i, tt := range g.TauTimes {
		for j, ts := range g.TauSplits {
			rec := []string{
				g.Dataset,
				strconv.FormatInt(int64(tt), 10),
				strconv.Itoa(ts),
				strconv.FormatInt(int64(g.Time[i][j]), 10),
				strconv.Itoa(g.Results[i][j]),
			}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteScaleCSV emits scalability rows with the derived speedup and
// busy-fraction columns, so the curve plots without recomputation.
func WriteScaleCSV(w io.Writer, rows []ScaleRow) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"machines", "workers", "time_ns", "ram_bytes", "disk_bytes", "busy_ns", "imbalance", "stolen", "speedup", "busy_fraction"}); err != nil {
		return err
	}
	for i, r := range rows {
		rec := []string{
			strconv.Itoa(r.Machines),
			strconv.Itoa(r.Workers),
			strconv.FormatInt(int64(r.Time), 10),
			strconv.FormatUint(r.RAM, 10),
			strconv.FormatInt(r.Disk, 10),
			strconv.FormatInt(int64(r.TotalBusy), 10),
			fmt.Sprintf("%.4f", r.Imbalance),
			strconv.FormatUint(r.Stolen, 10),
			fmt.Sprintf("%.4f", Speedup(rows, i)),
			fmt.Sprintf("%.4f", r.BusyFraction()),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
