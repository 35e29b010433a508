package experiments

import (
	"slices"
	"time"

	"gthinkerqc/internal/datagen"
	"gthinkerqc/internal/quasiclique"
)

// AblationRow measures one pruning-rule variant of the serial miner.
type AblationRow struct {
	Variant    string
	Time       time.Duration // median of ablationRuns warm runs
	Nodes      int64         // set-enumeration tree nodes expanded
	Candidates int64
	Results    int
}

// NsPerNode is the row's time per expanded tree node.
func (r AblationRow) NsPerNode() float64 {
	return float64(r.Time.Nanoseconds()) / float64(max(r.Nodes, 1))
}

// ablationRuns is how many timed runs an ablation row's time is the
// median of, after one untimed warm-up run.
const ablationRuns = 5

// AblationPruning runs the serial miner on one dataset with individual
// pruning techniques disabled — quantifying the claims of Section 4
// (e.g. T1: k-core preprocessing is "a dominating factor"). All
// variants must produce the same result set; only cost differs.
func AblationPruning(dataset string) ([]AblationRow, error) {
	g, s, err := buildDataset(dataset)
	if err != nil {
		return nil, err
	}
	par := quasiclique.Params{Gamma: s.Gamma, MinSize: s.MinSize}
	variants := []struct {
		name string
		opt  quasiclique.Options
	}{
		{"full algorithm", quasiclique.Options{}},
		{"no k-core preprocessing (T1)", quasiclique.Options{DisableKCore: true}},
		{"no lookahead", quasiclique.Options{DisableLookahead: true}},
		{"no cover-vertex (P7)", quasiclique.Options{DisableCoverVertex: true}},
		{"no critical-vertex (P6)", quasiclique.Options{DisableCriticalVertex: true}},
		{"no upper bound (P4)", quasiclique.Options{DisableUpperBound: true}},
		{"no lower bound (P5)", quasiclique.Options{DisableLowerBound: true}},
		{"no degree pruning (P3)", quasiclique.Options{DisableDegreePruning: true}},
	}
	var rows []AblationRow
	for _, v := range variants {
		// The warm-up run gives the counts, which every run repeats.
		results, stats, err := quasiclique.MineGraph(g, par, v.opt)
		if err != nil {
			return nil, err
		}
		times := make([]time.Duration, ablationRuns)
		for i := range times {
			start := time.Now()
			if _, _, err := quasiclique.MineGraph(g, par, v.opt); err != nil {
				return nil, err
			}
			times[i] = time.Since(start)
		}
		slices.Sort(times)
		rows = append(rows, AblationRow{
			Variant: v.name, Time: times[len(times)/2],
			Nodes: stats.Nodes, Candidates: stats.Candidates,
			Results: len(results),
		})
	}
	return rows, nil
}

// DecompRow compares decomposition strategies (Algorithm 10 vs 8) and
// the engine reforge (global big-task queue on/off).
type DecompRow struct {
	Variant   string
	Time      time.Duration
	Subtasks  uint64
	Imbalance float64
	MaterPct  float64 // materialization share of total task time
}

// AblationDecomposition contrasts time-delayed decomposition with
// size-threshold-only splitting, with the global queue disabled
// (original G-thinker scheduling), and with decomposition off
// entirely. tauTime and minSize override the dataset defaults when
// non-zero: head-of-line blocking only shows when a single task
// dominates the schedule, which on the YouTube stand-in happens at
// τsize ≈ 24 (later hard-core roots are size-pruned instantly).
func AblationDecomposition(dataset string, cluster Cluster, tauTime time.Duration, minSize int) ([]DecompRow, error) {
	type variant struct {
		name          string
		sizeThreshold bool
		disableGlobal bool
		noDecomp      bool
	}
	variants := []variant{
		{"time-delayed (Algorithm 10)", false, false, false},
		{"size-threshold (Algorithm 8)", true, false, false},
		{"time-delayed, no global queue", false, true, false},
		{"no decomposition (τtime=∞)", false, false, true},
	}
	var rows []DecompRow
	for _, v := range variants {
		out, err := Run(RunSpec{
			Dataset: dataset,
			TauTime: tauTime, MinSize: minSize,
			SizeThresholdOnly:  v.sizeThreshold,
			KeepNonMaximal:     true,
			DisableGlobalQueue: v.disableGlobal,
			NoDecomposition:    v.noDecomp,
		}, cluster)
		if err != nil {
			return nil, err
		}
		total := out.TotalMining + out.TotalMater
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(out.TotalMater) / float64(total)
		}
		rows = append(rows, DecompRow{
			Variant: v.name, Time: out.Wall, Subtasks: out.Subtasks,
			Imbalance: out.Engine.BusyImbalance(), MaterPct: pct,
		})
	}
	return rows, nil
}

// QuickMissRow quantifies the results missed by the original Quick
// algorithm's skipped checks (Section 4's correctness claim).
type QuickMissRow struct {
	Dataset string
	Full    int
	Quick   int
	Missed  int
}

// AblationQuickMiss compares the corrected serial algorithm against
// QuickCompat mode on the small datasets, plus a batch of sparse
// random graphs. Quick's two skipped checks only lose results on
// specific structures (a diameter-shrink emptying ext(S′) around a
// still-valid S′, or a critical-vertex expansion that dead-ends);
// planted near-cliques rarely contain them, sparse random graphs often
// do — which is exactly why the bug survived in Quick.
func AblationQuickMiss(datasets []string) ([]QuickMissRow, error) {
	var rows []QuickMissRow
	for _, name := range datasets {
		g, s, err := buildDataset(name)
		if err != nil {
			return nil, err
		}
		par := quasiclique.Params{Gamma: s.Gamma, MinSize: s.MinSize}
		full, _, err := quasiclique.MineGraph(g, par, quasiclique.Options{})
		if err != nil {
			return nil, err
		}
		qk, _, err := quasiclique.MineGraph(g, par, quasiclique.Options{QuickCompat: true})
		if err != nil {
			return nil, err
		}
		rows = append(rows, QuickMissRow{
			Dataset: name, Full: len(full), Quick: len(qk),
			Missed: len(full) - len(qk),
		})
	}
	// 200 sparse random graphs, γ=0.5 τ=3 (the regime of the missed
	// checks).
	par := quasiclique.Params{Gamma: 0.5, MinSize: 3}
	fullN, quickN := 0, 0
	for seed := uint64(0); seed < 200; seed++ {
		g := datagen.ErdosRenyi(12, 0.3, seed)
		full, _, err := quasiclique.MineGraph(g, par, quasiclique.Options{})
		if err != nil {
			return nil, err
		}
		qk, _, err := quasiclique.MineGraph(g, par, quasiclique.Options{QuickCompat: true})
		if err != nil {
			return nil, err
		}
		fullN += len(full)
		quickN += len(qk)
	}
	rows = append(rows, QuickMissRow{
		Dataset: "200 sparse ER(12, 0.3)", Full: fullN, Quick: quickN,
		Missed: fullN - quickN,
	})
	return rows, nil
}
