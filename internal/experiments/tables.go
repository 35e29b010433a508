package experiments

import (
	"time"

	"gthinkerqc/internal/datagen"
	"gthinkerqc/internal/graph"
)

// ---------------------------------------------------------------- Table 1

// Table1Row describes one dataset stand-in next to its paper-scale
// original.
type Table1Row struct {
	Name      string
	PaperV    int
	PaperE    int
	V         int
	E         int
	ScaleNote string
}

// Table1 builds every stand-in and reports its size (paper Table 1).
func Table1() ([]Table1Row, error) {
	var rows []Table1Row
	for _, s := range datagen.Standins() {
		g, _, err := buildDataset(s.Name)
		if err != nil {
			return nil, err
		}
		st := graph.ComputeStats(g)
		rows = append(rows, Table1Row{
			Name: s.Name, PaperV: s.PaperV, PaperE: s.PaperE,
			V: st.Vertices, E: st.Edges, ScaleNote: s.ScaleNote,
		})
	}
	return rows, nil
}

// ---------------------------------------------------------------- Table 2

// Table2Row is one dataset's full mining run with its Table 2
// parameters.
type Table2Row struct {
	Name     string
	MinSize  int
	Gamma    float64
	TauSplit int
	TauTime  time.Duration
	Time     time.Duration
	RAM      uint64
	Disk     int64
	// Results is the unfiltered count, as in the released code, but
	// not the paper's number: the miner's emission screen already
	// drops every set one vertex of its task extends, which the
	// paper's code reports. Maximal is the filtered count.
	Results int
	Maximal int
}

// Table2 reproduces the paper's per-dataset overview (Table 2).
func Table2(cluster Cluster) ([]Table2Row, error) {
	var rows []Table2Row
	for _, s := range datagen.Standins() {
		raw, err := Run(RunSpec{Dataset: s.Name, KeepNonMaximal: true}, cluster)
		if err != nil {
			return nil, err
		}
		filtered, err := Run(RunSpec{Dataset: s.Name}, cluster)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table2Row{
			Name: s.Name, MinSize: s.MinSize, Gamma: s.Gamma,
			TauSplit: s.TauSplit, TauTime: s.TauTime,
			Time: raw.Wall, RAM: raw.PeakRAM, Disk: raw.PeakDisk,
			Results: raw.Results, Maximal: filtered.Results,
		})
	}
	return rows, nil
}

// ------------------------------------------------------------ Tables 3, 4

// Grid is a (τtime × τsplit) hyperparameter sweep (paper Tables 3–4).
type Grid struct {
	Dataset   string
	TauTimes  []time.Duration
	TauSplits []int
	// Time[i][j] and Results[i][j] correspond to TauTimes[i] ×
	// TauSplits[j]. Results counts are unfiltered, like the paper's.
	Time    [][]time.Duration
	Results [][]int
}

// PaperTauTimes mirrors Table 3/4's τtime column at 1/1000 scale
// (milliseconds instead of seconds; see the package comment).
func PaperTauTimes() []time.Duration {
	return []time.Duration{
		20 * time.Millisecond, 10 * time.Millisecond, 5 * time.Millisecond,
		1 * time.Millisecond, 100 * time.Microsecond, 10 * time.Microsecond,
	}
}

// PaperTauSplits mirrors Table 3/4's τsplit row.
func PaperTauSplits() []int { return []int{1000, 500, 200, 100, 50} }

// RunGrid sweeps the hyperparameter grid on one dataset.
func RunGrid(dataset string, tauTimes []time.Duration, tauSplits []int, cluster Cluster) (*Grid, error) {
	g := &Grid{Dataset: dataset, TauTimes: tauTimes, TauSplits: tauSplits}
	for _, tt := range tauTimes {
		timeRow := make([]time.Duration, 0, len(tauSplits))
		resRow := make([]int, 0, len(tauSplits))
		for _, ts := range tauSplits {
			out, err := Run(RunSpec{
				Dataset: dataset, TauTime: tt, TauSplit: ts, KeepNonMaximal: true,
			}, cluster)
			if err != nil {
				return nil, err
			}
			timeRow = append(timeRow, out.Wall)
			resRow = append(resRow, out.Results)
		}
		g.Time = append(g.Time, timeRow)
		g.Results = append(g.Results, resRow)
	}
	return g, nil
}

// Table3 is the (τtime, τsplit) sweep on CX_GSE10158.
func Table3(cluster Cluster) (*Grid, error) {
	return RunGrid("CX_GSE10158", PaperTauTimes(), PaperTauSplits(), cluster)
}

// Table4 is the (τtime, τsplit) sweep on Hyves.
func Table4(cluster Cluster) (*Grid, error) {
	return RunGrid("Hyves", PaperTauTimes(), PaperTauSplits(), cluster)
}

// ---------------------------------------------------------------- Table 5

// ScaleRow is one scalability measurement (paper Table 5).
type ScaleRow struct {
	Machines int
	Workers  int
	// Threads is how many workers the engine reported busy time for:
	// Machines × Workers when the cell ran on the shape it is labelled
	// with.
	Threads int
	Time    time.Duration
	RAM     uint64
	Disk    int64
	// TotalBusy is the aggregate per-worker compute time: if it stays
	// flat while Time drops, the speedup is real parallelism, not
	// reduced work.
	TotalBusy time.Duration
	// Imbalance is max/mean worker busy time (1.0 = perfect balance).
	Imbalance float64
	Stolen    uint64
}

// ScaleSweep mines the dataset once per cluster shape (paper Table 5:
// (a) varies threads per machine at a fixed machine count, (b) the
// machine count at fixed threads; the caller scales the lists to the
// host).
func ScaleSweep(dataset string, shapes []Cluster) ([]ScaleRow, error) {
	var rows []ScaleRow
	for _, c := range shapes {
		out, err := Run(RunSpec{Dataset: dataset, KeepNonMaximal: true}, c)
		if err != nil {
			return nil, err
		}
		rows = append(rows, ScaleRow{
			Machines: c.Machines, Workers: c.Workers,
			Threads: len(out.Engine.WorkerBusy),
			Time:    out.Wall, RAM: out.PeakRAM, Disk: out.PeakDisk,
			TotalBusy: out.Engine.TotalBusy(),
			Imbalance: out.Engine.BusyImbalance(),
			Stolen:    out.Engine.TasksStolen,
		})
	}
	return rows, nil
}

// Speedup is the first row's time over row i's: the scaling curve.
func Speedup(rows []ScaleRow, i int) float64 {
	if rows[i].Time <= 0 {
		return 0
	}
	return float64(rows[0].Time) / float64(rows[i].Time)
}

// BusyFraction is the share of the row's thread time (wall time ×
// machines × workers) its workers spent computing; where the curve
// flattens, this says whether threads idled or did more work.
func (r ScaleRow) BusyFraction() float64 {
	if r.Time <= 0 || r.Threads <= 0 {
		return 0
	}
	return float64(r.TotalBusy) / (float64(r.Time) * float64(r.Threads))
}

// ---------------------------------------------------------------- Table 6

// Table6Row contrasts actual mining time with subgraph-materialization
// overhead as τtime varies (paper Table 6 on Hyves).
type Table6Row struct {
	TauTime     time.Duration
	JobTime     time.Duration
	TotalMining time.Duration
	TotalMater  time.Duration
	Ratio       float64 // mining : materialization
	Subtasks    uint64
}

// Table6TauTimes mirrors the paper's column at 1/1000 scale.
func Table6TauTimes() []time.Duration {
	return []time.Duration{
		50 * time.Millisecond, 20 * time.Millisecond, 10 * time.Millisecond,
		1 * time.Millisecond, 500 * time.Microsecond, 100 * time.Microsecond,
		10 * time.Microsecond,
	}
}

// Table6 measures decomposition overhead on the given dataset
// (the paper uses Hyves).
func Table6(dataset string, tauTimes []time.Duration, cluster Cluster) ([]Table6Row, error) {
	var rows []Table6Row
	for _, tt := range tauTimes {
		out, err := Run(RunSpec{Dataset: dataset, TauTime: tt, KeepNonMaximal: true}, cluster)
		if err != nil {
			return nil, err
		}
		ratio := 0.0
		if out.TotalMater > 0 {
			ratio = float64(out.TotalMining) / float64(out.TotalMater)
		}
		rows = append(rows, Table6Row{
			TauTime: tt, JobTime: out.Wall,
			TotalMining: out.TotalMining, TotalMater: out.TotalMater,
			Ratio: ratio, Subtasks: out.Subtasks,
		})
	}
	return rows, nil
}
