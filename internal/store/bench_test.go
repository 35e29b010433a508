package store_test

import (
	"path/filepath"
	"testing"

	"gthinkerqc/internal/datagen"
	"gthinkerqc/internal/graph"
	"gthinkerqc/internal/store"
)

// benchGraphFile writes a mid-size CSR file once per benchmark run.
func benchGraphFile(b *testing.B) (string, int64) {
	b.Helper()
	g := datagen.BarabasiAlbert(200000, 17, 16, 9)
	path := filepath.Join(b.TempDir(), "bench.gqc")
	if err := graph.WriteBinaryFile(path, g); err != nil {
		b.Fatal(err)
	}
	size := int64(16 + 4*(g.NumVertices()+1) + 8*g.NumEdges())
	return path, size
}

// BenchmarkMapGraph is the whole load: the mapping, the header and
// size checks, and FromCSR's offsets check and one pass over every row.
func BenchmarkMapGraph(b *testing.B) {
	path, size := benchGraphFile(b)
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := store.MapGraph(path)
		if err != nil {
			b.Fatal(err)
		}
		if !m.Mapped() || m.Graph().NumVertices() == 0 {
			b.Fatal("not mapped")
		}
		if err := m.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMapGraphFirstTouch adds one walk of every adjacency row
// after the load, the access a mining run makes. The load's own row
// scan has already faulted every page in.
func BenchmarkMapGraphFirstTouch(b *testing.B) {
	path, size := benchGraphFile(b)
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := store.MapGraph(path)
		if err != nil {
			b.Fatal(err)
		}
		g := m.Graph()
		var sum uint64
		for v := 0; v < g.NumVertices(); v++ {
			row := g.Adj(graph.V(v))
			if len(row) > 0 {
				sum += uint64(row[len(row)-1])
			}
		}
		if sum == 0 {
			b.Fatal("no edges touched")
		}
		if err := m.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
