package datagen

import (
	"fmt"
	"sort"
	"time"

	"gthinkerqc/internal/graph"
)

// Standin is a synthetic stand-in for one of the paper's datasets
// (Table 1), bundled with the mining parameters the paper used for it
// (Table 2). Absolute scale is reduced for the four big graphs so that
// the full experiment suite runs in minutes on a laptop; the structural
// features that drive the paper's observations (dense planted cores
// over a sparse heavy-tailed background; for YouTube, a "hard core"
// producing extreme task-time skew) are preserved; each stand-in's
// ScaleNote says how it relates to the real dataset.
type Standin struct {
	Name      string
	PaperV    int // |V| of the real dataset
	PaperE    int // |E| of the real dataset
	ScaleNote string

	Gamma    float64
	MinSize  int           // τsize
	TauSplit int           // τsplit used in Table 2
	TauTime  time.Duration // τtime used in Table 2

	Build func() *graph.Graph
}

// Standins returns the eight dataset stand-ins in the paper's Table 1
// order.
func Standins() []Standin {
	return []Standin{
		{
			Name: "CX_GSE1730", PaperV: 998, PaperE: 5096,
			ScaleNote: "full scale",
			Gamma:     0.9, MinSize: 20, TauSplit: 200, TauTime: 20 * time.Millisecond,
			Build: func() *graph.Graph { return gse1730Like() },
		},
		{
			Name: "CX_GSE10158", PaperV: 1621, PaperE: 7079,
			ScaleNote: "full scale",
			Gamma:     0.8, MinSize: 18, TauSplit: 500, TauTime: 20 * time.Millisecond,
			Build: func() *graph.Graph { return gse10158Like() },
		},
		{
			Name: "Ca-GrQc", PaperV: 5242, PaperE: 14496,
			ScaleNote: "full scale",
			Gamma:     0.8, MinSize: 10, TauSplit: 1000, TauTime: 10 * time.Millisecond,
			Build: func() *graph.Graph { return caGrQcLike() },
		},
		{
			Name: "Enron", PaperV: 36692, PaperE: 183831,
			ScaleNote: "1/2 scale",
			Gamma:     0.9, MinSize: 15, TauSplit: 100, TauTime: time.Millisecond,
			Build: func() *graph.Graph { return enronLike() },
		},
		{
			Name: "DBLP", PaperV: 317080, PaperE: 1049866,
			ScaleNote: "1/10 scale",
			Gamma:     0.8, MinSize: 38, TauSplit: 100, TauTime: 10 * time.Millisecond,
			Build: func() *graph.Graph { return dblpLike() },
		},
		{
			Name: "Amazon", PaperV: 334863, PaperE: 925872,
			ScaleNote: "1/10 scale",
			Gamma:     0.5, MinSize: 12, TauSplit: 500, TauTime: 10 * time.Millisecond,
			Build: func() *graph.Graph { return amazonLike() },
		},
		{
			Name: "Hyves", PaperV: 1402673, PaperE: 2777419,
			ScaleNote: "1/25 scale",
			Gamma:     0.9, MinSize: 16, TauSplit: 50, TauTime: time.Millisecond / 100,
			Build: func() *graph.Graph { return hyvesLike() },
		},
		{
			Name: "YouTube", PaperV: 1134890, PaperE: 2987624,
			ScaleNote: "1/25 scale; hard core planted",
			Gamma:     0.9, MinSize: 16, TauSplit: 100, TauTime: time.Millisecond / 100,
			Build: func() *graph.Graph { return youtubeLike() },
		},
	}
}

// StandinByName returns the stand-in with the given name.
func StandinByName(name string) (Standin, error) {
	for _, s := range Standins() {
		if s.Name == name {
			return s, nil
		}
	}
	return Standin{}, fmt.Errorf("datagen: unknown dataset %q", name)
}

// StandinNames returns all stand-in names in Table 1 order.
func StandinNames() []string {
	ss := Standins()
	names := make([]string, len(ss))
	for i, s := range ss {
		names[i] = s.Name
	}
	return names
}

// gse1730Like mirrors the CX_GSE1730 gene-coexpression network: ~1000
// vertices with a handful of dense coexpression modules.
func gse1730Like() *graph.Graph {
	g, _, err := Planted(PlantedConfig{
		N:          998,
		Background: 0.006,
		Communities: []Community{
			{Size: 24, Density: 0.96, Count: 4},
			{Size: 22, Density: 0.95, Count: 4},
		},
		Seed: 1730,
	})
	if err != nil {
		panic(err)
	}
	return g
}

// gse10158Like mirrors CX_GSE10158: slightly larger, lower γ (0.8), so
// modules are planted at lower density.
func gse10158Like() *graph.Graph {
	g, _, err := Planted(PlantedConfig{
		N:          1621,
		Background: 0.004,
		Communities: []Community{
			{Size: 22, Density: 0.88, Count: 5},
			{Size: 20, Density: 0.86, Count: 4},
		},
		Seed: 10158,
	})
	if err != nil {
		panic(err)
	}
	return g
}

// caGrQcLike mirrors the Ca-GrQc collaboration network: many small
// near-cliques (papers' author groups) over a sparse background.
func caGrQcLike() *graph.Graph {
	g, _, err := Planted(PlantedConfig{
		N:          5242,
		Background: 0.0008,
		Communities: []Community{
			{Size: 12, Density: 0.92, Count: 24},
			{Size: 10, Density: 0.95, Count: 30},
		},
		Seed: 5242,
	})
	if err != nil {
		panic(err)
	}
	return g
}

// enronLike mirrors the Enron email network: heavy-tailed background
// with several overlapping dense communication cores. This is the
// scalability dataset (Table 5), so it carries enough planted work to
// make parallelism visible.
func enronLike() *graph.Graph {
	base := BarabasiAlbert(18000, 6, 5, 36692)
	g, _, err := overlay(base, PlantedConfig{
		N:          18000,
		Background: 0,
		Communities: []Community{
			{Size: 20, Density: 0.94, Count: 8},
			{Size: 17, Density: 0.95, Count: 10},
			{Size: 29, Density: 0.87, Count: 4}, // heavy sub-threshold cores: the scalability workload
		},
		Seed: 366920,
	})
	if err != nil {
		panic(err)
	}
	return g
}

// dblpLike mirrors DBLP: co-authorship graph with very large
// near-clique communities (the paper mines τsize = 70 there; we plant
// size ~45 at 1/10 scale).
func dblpLike() *graph.Graph {
	base := BarabasiAlbert(30000, 4, 3, 317080)
	g, _, err := overlay(base, PlantedConfig{
		N:          30000,
		Background: 0,
		Communities: []Community{
			{Size: 42, Density: 0.93, Count: 2},
			{Size: 40, Density: 0.92, Count: 2},
		},
		Seed: 3170800,
	})
	if err != nil {
		panic(err)
	}
	return g
}

// amazonLike mirrors Amazon: a low-degree co-purchase network where
// valid quasi-cliques are rare (the paper finds only 9 at τsize=12,
// γ=0.5).
func amazonLike() *graph.Graph {
	base := BarabasiAlbert(30000, 3, 2, 334863)
	g, _, err := overlay(base, PlantedConfig{
		N:          30000,
		Background: 0,
		Communities: []Community{
			{Size: 13, Density: 0.75, Count: 3},
		},
		Seed: 3348630,
	})
	if err != nil {
		panic(err)
	}
	return g
}

// hyvesLike mirrors Hyves: social network with many dense cores that
// are expensive to mine (paper: results live in "hard cores").
func hyvesLike() *graph.Graph {
	base := BarabasiAlbert(56000, 5, 2, 1402673)
	g, _, err := overlay(base, PlantedConfig{
		N:          56000,
		Background: 0,
		Communities: []Community{
			{Size: 20, Density: 0.93, Count: 6},
			{Size: 18, Density: 0.92, Count: 8},
			{Size: 24, Density: 0.86, Count: 2}, // harder, sub-threshold cores
		},
		Seed: 14026730,
	})
	if err != nil {
		panic(err)
	}
	return g
}

// youtubeLike mirrors YouTube, the paper's hardest instance: a social
// network whose mining time is dominated by a few vertices inside a
// large, just-below-threshold core (the paper's vertex 363 generates
// subtasks worth 361,334 s). We plant one large density-0.87 core —
// below γ=0.9, so it yields few results but a huge search space —
// along with normal communities.
func youtubeLike() *graph.Graph {
	base := BarabasiAlbert(45000, 5, 2, 1134890)
	g, _, err := overlay(base, PlantedConfig{
		N:          45000,
		Background: 0,
		Communities: []Community{
			{Size: 34, Density: 0.87, Count: 1}, // the hard core
			{Size: 19, Density: 0.94, Count: 5},
			{Size: 17, Density: 0.95, Count: 5},
		},
		Seed: 11348900,
	})
	if err != nil {
		panic(err)
	}
	return g
}

// overlay merges the edges of base with the planted communities of
// cfg (cfg.N must equal base's vertex count).
func overlay(base *graph.Graph, cfg PlantedConfig) (*graph.Graph, [][]graph.V, error) {
	planted, plants, err := Planted(cfg)
	if err != nil {
		return nil, nil, err
	}
	if planted.NumVertices() != base.NumVertices() {
		return nil, nil, fmt.Errorf("datagen: overlay size mismatch %d vs %d",
			planted.NumVertices(), base.NumVertices())
	}
	b := graph.NewBuilder(base.NumVertices())
	for v := 0; v < base.NumVertices(); v++ {
		for _, u := range base.Adj(graph.V(v)) {
			if u > graph.V(v) {
				b.AddEdge(graph.V(v), u)
			}
		}
		for _, u := range planted.Adj(graph.V(v)) {
			if u > graph.V(v) {
				b.AddEdge(graph.V(v), u)
			}
		}
	}
	return b.MustBuild(), plants, nil
}

// SortVerts sorts a vertex slice in place and returns it (test helper
// shared by packages that assert on planted communities).
func SortVerts(vs []graph.V) []graph.V {
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
	return vs
}
