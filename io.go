package gthinkerqc

import (
	"io"

	"gthinkerqc/internal/datagen"
	"gthinkerqc/internal/graph"
	"gthinkerqc/internal/store"
)

// LoadEdgeList parses a whitespace-separated edge list (the format of
// SNAP and KONECT dumps; '#' and '%' comment lines are skipped).
// Vertex IDs are remapped densely; the mapping is discarded — use the
// lower-level loader in internal/graph if you need it.
func LoadEdgeList(r io.Reader) (*Graph, error) {
	res, err := graph.LoadEdgeList(r, graph.LoadOptions{})
	if err != nil {
		return nil, err
	}
	return res.Graph, nil
}

// LoadEdgeListFile opens path and parses it with LoadEdgeList.
func LoadEdgeListFile(path string) (*Graph, error) {
	res, err := graph.LoadEdgeListFile(path, graph.LoadOptions{})
	if err != nil {
		return nil, err
	}
	return res.Graph, nil
}

// MappedGraph is a Graph whose CSR arrays (ideally) alias a read-only
// file mapping; see MapBinaryFile.
type MappedGraph = store.MappedGraph

// MapBinaryFile loads a binary graph file written by SaveBinaryFile
// (or cmd/qcgen, cmd/qcconvert); it is the library's one binary
// reader. The file is memory-mapped and the Graph's CSR arrays point
// straight at the mapping. Every load checks the header, the file size
// and each adjacency row (IDs in range, rows strictly sorted, no self
// loops), so a corrupt file is an error. The Graph is valid until
// Close; where mapping is unavailable (unsupported platform, big-endian
// host) the file is read into the heap instead and Close is a no-op.
func MapBinaryFile(path string) (*MappedGraph, error) {
	return store.MapGraph(path)
}

// SaveBinaryFile writes g in the compact binary format.
func SaveBinaryFile(path string, g *Graph) error {
	return graph.WriteBinaryFile(path, g)
}

// GenerateER returns an Erdős–Rényi G(n, p) graph with a fixed seed.
func GenerateER(n int, p float64, seed uint64) *Graph {
	return datagen.ErdosRenyi(n, p, seed)
}

// GenerateBA returns a Barabási–Albert preferential-attachment graph:
// heavy-tailed degrees like large social networks.
func GenerateBA(n, attach int, seed uint64) *Graph {
	m0 := attach + 1
	return datagen.BarabasiAlbert(n, m0, attach, seed)
}

// CommunitySpec plants `Count` disjoint communities of `Size` vertices
// whose internal edge probability is `Density`.
type CommunitySpec struct {
	Size    int
	Density float64
	Count   int
}

// GeneratePlanted returns a graph of n vertices with background edge
// probability p plus the given planted dense communities, along with
// the planted vertex sets (the ground-truth communities).
func GeneratePlanted(n int, p float64, communities []CommunitySpec, seed uint64) (*Graph, [][]V, error) {
	cs := make([]datagen.Community, len(communities))
	for i, c := range communities {
		cs[i] = datagen.Community{Size: c.Size, Density: c.Density, Count: c.Count}
	}
	return datagen.Planted(datagen.PlantedConfig{
		N: n, Background: p, Communities: cs, Seed: seed,
	})
}

// Dataset names one of the built-in synthetic stand-ins for the
// paper's eight evaluation datasets (Table 1), bundled with the mining
// parameters of Table 2.
type Dataset struct {
	Name    string
	Gamma   float64
	MinSize int
}

// Datasets lists the built-in stand-ins in the paper's order.
func Datasets() []Dataset {
	ss := datagen.Standins()
	out := make([]Dataset, len(ss))
	for i, s := range ss {
		out[i] = Dataset{Name: s.Name, Gamma: s.Gamma, MinSize: s.MinSize}
	}
	return out
}

// BuildDataset constructs the named stand-in graph deterministically.
func BuildDataset(name string) (*Graph, Dataset, error) {
	s, err := datagen.StandinByName(name)
	if err != nil {
		return nil, Dataset{}, err
	}
	return s.Build(), Dataset{Name: s.Name, Gamma: s.Gamma, MinSize: s.MinSize}, nil
}
