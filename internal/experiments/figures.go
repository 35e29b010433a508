package experiments

import (
	"sort"
	"time"

	"gthinkerqc/internal/metrics"
)

// FigureData is the per-root task-time series behind Figures 1–3,
// captured from one mining run of the given dataset (the paper uses
// YouTube).
type FigureData struct {
	Dataset string
	Roots   []metrics.RootStat // sorted by mining time descending
	Wall    time.Duration
}

// CollectFigureData runs the dataset once and snapshots per-root
// statistics.
func CollectFigureData(dataset string, cluster Cluster) (*FigureData, error) {
	out, err := Run(RunSpec{Dataset: dataset, KeepNonMaximal: true}, cluster)
	if err != nil {
		return nil, err
	}
	return &FigureData{
		Dataset: dataset,
		Roots:   out.Recorder.PerRoot(),
		Wall:    out.Wall,
	}, nil
}

// Figure1 buckets the mining time of every task spawned by an unpruned
// vertex into a log-scale histogram — the heavy-tail view of Figure 1.
func (f *FigureData) Figure1() []metrics.HistBin {
	return metrics.Histogram(f.Roots)
}

// Figure2 returns the top-k most expensive tasks (Figure 2 uses the
// top 100 on YouTube).
func (f *FigureData) Figure2(k int) []metrics.RootStat {
	if k > len(f.Roots) {
		k = len(f.Roots)
	}
	return f.Roots[:k]
}

// Figure3Cohorts reproduces Figure 3's contrast: among tasks with
// subgraphs of comparable size, mining times differ by orders of
// magnitude. Slow is the top-n tasks by mining time; Fast holds tasks
// whose subgraph size falls inside Slow's size range but whose time is
// smallest — same |V|, wildly different cost.
func (f *FigureData) Figure3Cohorts(n int) (slow, fast []metrics.RootStat) {
	if len(f.Roots) == 0 {
		return nil, nil
	}
	k := n
	if k > len(f.Roots) {
		k = len(f.Roots)
	}
	slow = f.Roots[:k]
	minSize, maxSize := slow[0].SubSize, slow[0].SubSize
	for _, s := range slow {
		if s.SubSize < minSize {
			minSize = s.SubSize
		}
		if s.SubSize > maxSize {
			maxSize = s.SubSize
		}
	}
	// Loosen the band: "comparable size" per the paper's Figure 3 is
	// within the same order of magnitude.
	lo := minSize / 2
	inSlow := map[uint32]bool{}
	for _, s := range slow {
		inSlow[uint32(s.Root)] = true
	}
	var cand []metrics.RootStat
	for _, s := range f.Roots[k:] {
		if s.SubSize >= lo && s.SubSize <= maxSize && !inSlow[uint32(s.Root)] {
			cand = append(cand, s)
		}
	}
	sort.Slice(cand, func(i, j int) bool { return cand[i].Mining < cand[j].Mining })
	if len(cand) > n {
		cand = cand[:n]
	}
	fast = cand
	return slow, fast
}
