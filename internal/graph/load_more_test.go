package graph

import (
	"strings"
	"testing"
)

func TestLoadEdgeListFileMissing(t *testing.T) {
	if _, err := LoadEdgeListFile("/nonexistent/missing.txt", LoadOptions{}); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestLoadEdgeListCustomComments(t *testing.T) {
	in := "// custom comment\n0 1\n"
	res, err := LoadEdgeList(strings.NewReader(in), LoadOptions{Comments: []string{"//"}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Graph.NumEdges() != 1 {
		t.Fatalf("edges = %d", res.Graph.NumEdges())
	}
	// Default comments not honored when a custom set is given.
	if _, err := LoadEdgeList(strings.NewReader("# not a comment now\n"),
		LoadOptions{Comments: []string{"//"}}); err == nil {
		t.Fatal("un-skipped comment line parsed as edge")
	}
}

func TestLoadEdgeListExtraColumns(t *testing.T) {
	// KONECT dumps carry weights/timestamps in extra columns.
	res, err := LoadEdgeList(strings.NewReader("0 1 1.5 1234567\n1 2 0.3 1234568\n"), LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Graph.NumEdges() != 2 {
		t.Fatalf("edges = %d", res.Graph.NumEdges())
	}
}

// csrGraph hand-builds a (possibly invalid) CSR graph for Validate
// tests, bypassing the Builder's normalization.
func csrGraph(rows [][]V, m int) *Graph {
	offsets := make([]uint32, len(rows)+1)
	var neighbors []V
	for v, r := range rows {
		offsets[v] = uint32(len(neighbors))
		neighbors = append(neighbors, r...)
	}
	offsets[len(rows)] = uint32(len(neighbors))
	return &Graph{offsets: offsets, neighbors: neighbors, m: m}
}

func TestWriteEdgeListFileError(t *testing.T) {
	g := FromEdges(2, [][2]V{{0, 1}})
	if err := WriteEdgeListFile("/nonexistent/dir/out.txt", g); err == nil {
		t.Fatal("bad path accepted")
	}
	if err := WriteBinaryFile("/nonexistent/dir/out.bin", g); err == nil {
		t.Fatal("bad binary path accepted")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	// Hand-build broken graphs to exercise each Validate branch.
	asym := csrGraph([][]V{{1}, {}}, 0)
	if err := asym.Validate(); err == nil {
		t.Fatal("asymmetric adjacency accepted")
	}
	self := csrGraph([][]V{{0}}, 0)
	if err := self.Validate(); err == nil {
		t.Fatal("self loop accepted")
	}
	unsorted := csrGraph([][]V{{2, 1}, {0}, {0}}, 2)
	if err := unsorted.Validate(); err == nil {
		t.Fatal("unsorted adjacency accepted")
	}
	oob := csrGraph([][]V{{9}}, 0)
	if err := oob.Validate(); err == nil {
		t.Fatal("out-of-range edge accepted")
	}
	badCount := csrGraph([][]V{{1}, {0}}, 7)
	if err := badCount.Validate(); err == nil {
		t.Fatal("bad edge count accepted")
	}
}
