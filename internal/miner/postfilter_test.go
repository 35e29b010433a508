package miner

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"gthinkerqc/internal/datagen"
	"gthinkerqc/internal/graph"
	"gthinkerqc/internal/gthinker"
	"gthinkerqc/internal/quasiclique"
)

// procsPool starts a pool of real worker processes over the session
// test graph, or skips under -short.
func procsPool(t *testing.T, ecfg gthinker.Config) *Session {
	t.Helper()
	if testing.Short() {
		t.Skip("spawns OS processes")
	}
	_, graphPath := writeProcsGraph(t, t.TempDir())
	pool, err := StartProcsPool(ecfg, ProcsConfig{GraphPath: graphPath, Command: helperWorkerCommand(graphPath)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pool.Close() })
	return pool
}

// TestCandidatesOneDefinition pins Result.Candidates to one meaning on
// every path: candidate emissions, repeats included, counted where
// they are emitted — before any deduplication or (pre-)filter, so
// neither the skip option nor survivors-only shipping moves it. When
// no task is decomposed the parallel search is the serial search and
// the counts are equal. With decomposition a subtree's parent emits on
// its child's behalf, and the child's witness rows screen out of the
// child what the parent's Sub would have (Miner.Subtask), so the count
// may land on either side of the serial one; on this graph it equals
// it. Which subtasks exist depends only on τsplit under SizeThreshold,
// so it is the same on every cluster shape, and every result is one of
// the candidates.
func TestCandidatesOneDefinition(t *testing.T) {
	g := sessionTestGraph(t)
	par := quasiclique.Params{Gamma: 0.8, MinSize: 7}
	_, stats, err := quasiclique.MineGraph(g, par, quasiclique.Options{})
	if err != nil {
		t.Fatal(err)
	}
	oneByW := gthinker.Config{Machines: 1, WorkersPerMachine: 3}
	twoByOne := gthinker.Config{Machines: 2, WorkersPerMachine: 1, InProcessTCP: true}
	mine := func(cfg Config, ecfg gthinker.Config) *Result {
		t.Helper()
		res, err := Mine(g, cfg, ecfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	for _, skip := range []bool{false, true} {
		whole := Config{Params: par, Options: quasiclique.Options{SkipMaximalityFilter: skip}}
		for _, ecfg := range []gthinker.Config{oneByW, twoByOne} {
			res := mine(whole, ecfg)
			if res.Engine.SubtasksAdded != 0 {
				t.Fatalf("default τtime/τsplit decomposed %d subtasks on the test graph", res.Engine.SubtasksAdded)
			}
			if int64(res.Candidates) != stats.Candidates {
				t.Fatalf("skip=%v %dx%d: %d candidates, serial emitted %d",
					skip, ecfg.Machines, ecfg.WorkersPerMachine, res.Candidates, stats.Candidates)
			}
		}
	}

	split := Config{Params: par, Strategy: SizeThreshold, TauSplit: 4}
	a, b := mine(split, oneByW), mine(split, twoByOne)
	if a.Engine.SubtasksAdded == 0 {
		t.Fatal("τsplit=4 decomposed nothing; test parameters are wrong")
	}
	if a.Candidates != b.Candidates || a.Candidates < len(a.Cliques) {
		t.Fatalf("decomposed: 1×3 counts %d, 2×1 TCP %d, for %d results", a.Candidates, b.Candidates, len(a.Cliques))
	}
	pool := procsPool(t, gthinker.Config{Machines: 2, WorkersPerMachine: 1})
	c, err := pool.RunJob(context.Background(), split)
	if err != nil {
		t.Fatal(err)
	}
	if c.Candidates != a.Candidates {
		t.Fatalf("decomposed: 2×1 processes count %d candidates, in-process %d", c.Candidates, a.Candidates)
	}
}

// TestPreFilteredResultsBitIdentical runs a maximally decomposed job —
// every worker appends non-maximal candidates to its own list beside
// its peers' — through each composition and requires the serial
// miner's result in the serial miner's order. With the filter skipped the
// distinct candidates come back instead, identically from 1×W and 2×1.
func TestPreFilteredResultsBitIdentical(t *testing.T) {
	g := sessionTestGraph(t)
	par := quasiclique.Params{Gamma: 0.8, MinSize: 7}
	want := serialReference(t, g, par)
	cfg := Config{Params: par, TauTime: time.Nanosecond, TauSplit: 4}
	oneByW := gthinker.Config{Machines: 1, WorkersPerMachine: 4}
	twoByOne := gthinker.Config{Machines: 2, WorkersPerMachine: 1, InProcessTCP: true}

	for _, ecfg := range []gthinker.Config{oneByW, twoByOne} {
		res, err := Mine(g, cfg, ecfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Cliques, want) {
			t.Fatalf("%d×%d: %d cliques, serial %d, or order differs", ecfg.Machines, ecfg.WorkersPerMachine, len(res.Cliques), len(want))
		}
		if res.Candidates <= len(res.Cliques) {
			t.Fatalf("%d candidates for %d results: nothing was filtered", res.Candidates, len(res.Cliques))
		}
	}

	raw := Config{Params: par, Strategy: SizeThreshold, TauSplit: 4, Options: quasiclique.Options{SkipMaximalityFilter: true}}
	a, err := Mine(g, raw, oneByW)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Mine(g, raw, twoByOne)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Cliques, b.Cliques) || len(a.Cliques) <= len(want) {
		t.Fatalf("unfiltered: %d candidates from 1×4, %d from 2×1 TCP, %d maximal", len(a.Cliques), len(b.Cliques), len(want))
	}
	if got := quasiclique.FilterMaximal(a.Cliques); !reflect.DeepEqual(got, want) {
		t.Fatalf("filtering the unfiltered output gives %d cliques, serial %d", len(got), len(want))
	}

	pool := procsPool(t, gthinker.Config{Machines: 2, WorkersPerMachine: 2})
	res, err := pool.RunJob(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Cliques, want) {
		t.Fatalf("2×2 processes: %d cliques, serial %d, or order differs", len(res.Cliques), len(want))
	}
	c, err := pool.RunJob(context.Background(), raw)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c.Cliques, a.Cliques) {
		t.Fatalf("unfiltered: %d candidates from 2×2 processes, %d in-process", len(c.Cliques), len(a.Cliques))
	}
}

// TestWorkerShipsSurvivorsOnly drives the machine half of the cluster
// protocol: the result frame in the shutdown report holds exactly the
// sets that are maximal among this machine's candidates, fewer than
// its workers' lists hold, with the emission count (the lists'
// lengths) and the per-root rows beside them; with the filter skipped
// it holds every distinct candidate.
func TestWorkerShipsSurvivorsOnly(t *testing.T) {
	g := sessionTestGraph(t)
	ecfg := gthinker.Config{Machines: 1, WorkersPerMachine: 3}
	for _, skip := range []bool{false, true} {
		cfg := Config{
			Params: quasiclique.Params{Gamma: 0.8, MinSize: 7}, TauTime: time.Nanosecond, TauSplit: 4,
			Options: quasiclique.Options{SkipMaximalityFilter: skip},
		}
		// The machine's own factory, keeping the app it builds.
		var a *app
		newApp := func(spec []byte, workers int) (gthinker.App, error) {
			ga, err := appFactory(g)(spec, workers)
			a, _ = ga.(*app)
			return ga, err
		}
		cluster, err := gthinker.NewLocalCluster(g, ecfg, newApp)
		if err != nil {
			t.Fatal(err)
		}
		out, err := cluster.RunJob(context.Background(), AppendJobSpec(nil, cfg))
		cluster.Close()
		if err != nil {
			t.Fatal(err)
		}
		var all [][]graph.V
		var emitted int64
		for _, found := range a.found {
			all = append(all, found...)
			emitted += int64(len(found))
		}
		survivors := quasiclique.FilterMaximal(all)
		distinct := quasiclique.Finalize([][][]graph.V{append([][]graph.V(nil), all...)}, true)

		shipped, count, roots, err := DecodeResults(out.Results[0], g.NumVertices())
		if err != nil {
			t.Fatal(err)
		}
		if count != emitted {
			t.Fatalf("skip=%v: frame carries %d emissions, the workers' lists hold %d", skip, count, emitted)
		}
		if n := len(a.rec.PerRoot()); len(roots) != n || n == 0 {
			t.Fatalf("skip=%v: frame carries %d root rows, the recorder holds %d", skip, len(roots), n)
		}
		want := survivors
		if skip {
			want = distinct
		}
		if !reflect.DeepEqual(shipped, want) {
			t.Fatalf("skip=%v: shipped %d sets, want %d", skip, len(shipped), len(want))
		}
		if len(survivors) >= len(distinct) {
			t.Fatalf("%d survivors of %d distinct candidates: the job gave the pre-filter nothing to do", len(survivors), len(distinct))
		}
	}
}

// TestAbortedJobReturnsFilteredPartial: a job stopped by its budget
// returns the maximality filter of whatever its workers had collected
// — valid quasi-cliques, none inside another, each inside some result
// of the complete run — and counts the emissions made so far.
func TestAbortedJobReturnsFilteredPartial(t *testing.T) {
	g, _, err := datagen.Planted(datagen.PlantedConfig{
		N: 4000, Background: 0.001,
		Communities: []datagen.Community{{Size: 26, Density: 0.9, Count: 2}},
		Seed:        777,
	})
	if err != nil {
		t.Fatal(err)
	}
	par := quasiclique.Params{Gamma: 0.9, MinSize: 12}
	full := serialReference(t, g, par)
	for _, ecfg := range []gthinker.Config{
		{Machines: 1, WorkersPerMachine: 3},
		{Machines: 2, WorkersPerMachine: 1, InProcessTCP: true},
	} {
		// Grow the budget until the abort lands after the first finds.
		var res *Result
		for budget := 5 * time.Millisecond; ; budget *= 2 {
			var err error
			res, err = Mine(g, Config{Params: par, TauTime: time.Millisecond, TauSplit: 8, TimeBudget: budget}, ecfg)
			if err == nil {
				t.Skipf("the job finished inside %v; nothing was aborted", budget)
			}
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("budgeted job err = %v, want context.DeadlineExceeded", err)
			}
			if len(res.Cliques) > 0 {
				break
			}
		}
		if res.Candidates < len(res.Cliques) {
			t.Fatalf("%d candidates, %d partial results", res.Candidates, len(res.Cliques))
		}
		if again := quasiclique.FilterMaximal(res.Cliques); !reflect.DeepEqual(again, res.Cliques) {
			t.Fatalf("partial result is not its own maximality filter: %d of %d sets survive", len(again), len(res.Cliques))
		}
		for _, s := range res.Cliques {
			if !quasiclique.IsQuasiClique(g, s, par.Gamma) {
				t.Fatalf("partial result holds %v, not a quasi-clique", s)
			}
			inside := false
			for _, f := range full {
				if quasiclique.IsSubsetSorted(s, f) {
					inside = true
					break
				}
			}
			if !inside {
				t.Fatalf("partial result %v is in no result of the complete run", s)
			}
		}
	}
}
