package miner

import (
	"context"
	"time"

	"gthinkerqc/internal/graph"
	"gthinkerqc/internal/gthinker"
	"gthinkerqc/internal/metrics"
	"gthinkerqc/internal/obs"
	"gthinkerqc/internal/quasiclique"
)

// Strategy selects the divide-and-conquer flavor of iteration 3.
type Strategy int

const (
	// TimeDelayed is Algorithm 10 (the paper's default): mine by
	// backtracking until τtime elapses, then wrap every remaining
	// subtree into an independent subtask.
	TimeDelayed Strategy = iota
	// SizeThreshold is Algorithm 8: decompose any task whose |ext(S)|
	// exceeds τsplit before mining it.
	SizeThreshold
)

func (s Strategy) String() string {
	if s == SizeThreshold {
		return "size-threshold"
	}
	return "time-delayed"
}

// Config parameterizes a parallel mining run.
type Config struct {
	Params  quasiclique.Params
	Options quasiclique.Options
	// TauSplit routes tasks with |ext(S)| > τsplit to the global
	// big-task queue (and, under SizeThreshold, forces decomposition).
	// Default 256.
	TauSplit int
	// TauTime is the backtracking budget before time-delayed
	// decomposition kicks in. Default 100 ms. Use a tiny positive
	// value (e.g. time.Nanosecond) to decompose maximally.
	TauTime time.Duration
	// Strategy defaults to TimeDelayed.
	Strategy Strategy
	// TimeBudget bounds the whole job's wall time; 0 means unlimited.
	// It travels in the job spec like every other per-query parameter,
	// and Session.Mine enforces it with a context deadline, so a
	// budgeted job returns its partial results with
	// context.DeadlineExceeded.
	TimeBudget time.Duration
}

func (c Config) withDefaults() Config {
	if c.TauSplit == 0 {
		c.TauSplit = 256
	}
	if c.TauTime == 0 {
		c.TauTime = 100 * time.Millisecond
	}
	return c
}

// Result is the outcome of a parallel mining run.
type Result struct {
	// Cliques are the final maximal quasi-cliques (or every distinct
	// candidate when Options.SkipMaximalityFilter is set), canonically
	// ordered. A job stopped early — cancelled, or out of TimeBudget —
	// returns the same post-processing of whatever its workers had
	// collected by then: valid quasi-cliques, maximal among themselves,
	// not necessarily maximal in the graph.
	Cliques [][]graph.V
	// Candidates counts candidate emissions, repeats included: what
	// the search produced before any deduplication or filtering, summed
	// over the machines that finished the job (each carries its count
	// in its result frame next to the sets it ships). It is
	// quasiclique.MineStats.Candidates for the same search; a search
	// that decomposes tasks emits more, because the parent of an
	// offloaded subtree cannot wait to learn whether the subtree found
	// a superset and has to emit its own set.
	Candidates int
	// Engine reports engine-level metrics (queues, spilling,
	// stealing, per-worker busy time).
	Engine *gthinker.Metrics
	// Recorder exposes per-root mining/materialization accounting
	// (Figures 1–3, Table 6), merged from the surviving machines'
	// result frames: the largest SubSize, the other fields summed.
	Recorder *metrics.Recorder
	// Trace is the merged cluster span timeline when the engine config
	// asked for tracing (gthinker.Config.Trace); nil otherwise. Export
	// it with obs.WriteChromeTraceFile for Perfetto.
	Trace *obs.Trace
}

// Mine runs the parallel quasi-clique miner over g on a simulated
// cluster described by ecfg.
func Mine(g *graph.Graph, cfg Config, ecfg gthinker.Config) (*Result, error) {
	return MineContext(context.Background(), g, cfg, ecfg)
}

// MineContext is Mine with cancellation. On cancellation it returns
// the (partial, still-valid) results found so far together with the
// context error. It is a one-job session: open, mine, close.
func MineContext(ctx context.Context, g *graph.Graph, cfg Config, ecfg gthinker.Config) (*Result, error) {
	s := NewSession(g, ecfg)
	defer s.Close()
	return s.Mine(ctx, cfg)
}
