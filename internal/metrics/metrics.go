// Package metrics instruments the parallel miner: per-root-task mining
// time (Figures 1–3 of the paper), the mining vs. subgraph-
// materialization split (Table 6), and candidate counters.
//
// A "root task" is the task spawned from one vertex; all subtasks
// created by decomposition attribute their time back to the spawning
// root, matching the paper's accounting ("the subtasks of the vertex
// with ID 363 of YouTube alone ... collectively take 361,334 s").
package metrics

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"gthinkerqc/internal/graph"
)

// RootStat aggregates one spawned vertex's work.
type RootStat struct {
	Root graph.V
	// SubSize is |V| of the root task's mining subgraph (after the
	// two pull iterations and k-core peeling).
	SubSize int
	// Mining is the total backtracking time over the root task and
	// all of its decomposed subtasks.
	Mining time.Duration
	// Materialize is the total time spent building subtask subgraphs
	// (the decomposition overhead of Table 6).
	Materialize time.Duration
	// Subtasks counts decomposed descendants.
	Subtasks int
}

// Recorder accumulates miner instrumentation. Safe for concurrent use.
type Recorder struct {
	mu    sync.Mutex
	roots map[graph.V]*RootStat

	miningNs int64
	materNs  int64
}

// NewRecorder returns an empty Recorder.
func NewRecorder() *Recorder {
	return &Recorder{roots: make(map[graph.V]*RootStat)}
}

// RootStarted notes the root task's subgraph size when it first
// reaches the mining iteration.
func (r *Recorder) RootStarted(root graph.V, subSize int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.root(root)
	if subSize > s.SubSize {
		s.SubSize = subSize
	}
}

// TaskDone accounts one compute call of the mining iteration: mining
// time, materialization time, and the number of subtasks it created.
func (r *Recorder) TaskDone(root graph.V, mining, materialize time.Duration, subtasks int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.root(root)
	s.Mining += mining
	s.Materialize += materialize
	s.Subtasks += subtasks
	r.miningNs += int64(mining)
	r.materNs += int64(materialize)
}

func (r *Recorder) root(root graph.V) *RootStat {
	s, ok := r.roots[root]
	if !ok {
		s = &RootStat{Root: root}
		r.roots[root] = s
	}
	return s
}

// TotalMining returns the aggregate mining time over all tasks.
func (r *Recorder) TotalMining() time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return time.Duration(r.miningNs)
}

// TotalMaterialize returns the aggregate subgraph-materialization time.
func (r *Recorder) TotalMaterialize() time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return time.Duration(r.materNs)
}

// PerRoot snapshots root statistics sorted by Mining time descending —
// the series behind Figures 1 and 2.
func (r *Recorder) PerRoot() []RootStat {
	r.mu.Lock()
	out := make([]RootStat, 0, len(r.roots))
	for _, s := range r.roots {
		out = append(out, *s)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Mining != out[j].Mining {
			return out[i].Mining > out[j].Mining
		}
		return out[i].Root < out[j].Root
	})
	return out
}

// TopK returns the k most expensive roots (Figure 2's top-100 tasks).
func (r *Recorder) TopK(k int) []RootStat {
	all := r.PerRoot()
	if k > len(all) {
		k = len(all)
	}
	return all[:k]
}

// WriteRootTable renders root tasks in the order given (PerRoot and
// TopK return heaviest first) as an aligned table: the per-root
// mining/materialization split behind the paper's Figure 2.
func WriteRootTable(w io.Writer, roots []RootStat) {
	fmt.Fprintf(w, "%6s %10s %8s %12s %12s %9s\n", "rank", "root", "|V(g)|", "mining", "materialize", "subtasks")
	for i, s := range roots {
		fmt.Fprintf(w, "%6d %10d %8d %12v %12v %9d\n",
			i+1, s.Root, s.SubSize, s.Mining.Round(time.Microsecond),
			s.Materialize.Round(time.Microsecond), s.Subtasks)
	}
}

// Histogram buckets root mining times into powers-of-ten bins
// [<1µs, <10µs, ... , ≥10s] for Figure 1's distribution view.
func Histogram(stats []RootStat) []HistBin {
	bounds := []time.Duration{
		time.Microsecond, 10 * time.Microsecond, 100 * time.Microsecond,
		time.Millisecond, 10 * time.Millisecond, 100 * time.Millisecond,
		time.Second, 10 * time.Second,
	}
	bins := make([]HistBin, len(bounds)+1)
	for i, b := range bounds {
		bins[i].Upper = b
	}
	bins[len(bounds)].Upper = 0 // overflow bin
	for _, s := range stats {
		placed := false
		for i, b := range bounds {
			if s.Mining < b {
				bins[i].Count++
				placed = true
				break
			}
		}
		if !placed {
			bins[len(bounds)].Count++
		}
	}
	return bins
}

// HistBin is one histogram bucket; Upper == 0 marks the overflow bin.
type HistBin struct {
	Upper time.Duration
	Count int
}
