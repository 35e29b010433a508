package graph_test

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gthinkerqc/internal/datagen"
	"gthinkerqc/internal/graph"
	"gthinkerqc/internal/store"
)

// This package writes GQC2 and validates a CSR (FromCSR); its reader is
// store.MapGraph. These tests hold the writers to the layout that
// reader accepts. store's own tables cover the reader's checks on both
// load paths.

func codecTestGraph() *graph.Graph {
	// Two triangles bridged by an edge, plus an isolated vertex —
	// exercises empty rows and non-uniform degrees.
	return graph.FromEdges(7, [][2]graph.V{
		{0, 1}, {1, 2}, {0, 2},
		{3, 4}, {4, 5}, {3, 5},
		{2, 3},
	})
}

func requireGraphsEqual(t *testing.T, a, b *graph.Graph) {
	t.Helper()
	if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() {
		t.Fatalf("shape mismatch: (%d,%d) vs (%d,%d)",
			a.NumVertices(), a.NumEdges(), b.NumVertices(), b.NumEdges())
	}
	for v := 0; v < a.NumVertices(); v++ {
		av, bv := a.Adj(graph.V(v)), b.Adj(graph.V(v))
		if len(av) != len(bv) {
			t.Fatalf("degree mismatch at %d", v)
		}
		for i := range av {
			if av[i] != bv[i] {
				t.Fatalf("adjacency mismatch at %d", v)
			}
		}
	}
}

// mapFile maps path and returns its graph; the mapping is closed when
// the test ends.
func mapFile(t *testing.T, path string) *graph.Graph {
	t.Helper()
	m, err := store.MapGraph(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	if err := m.Graph().Validate(); err != nil {
		t.Fatal(err)
	}
	return m.Graph()
}

// TestBinaryRoundtripCSR: WriteBinary's bytes are the documented
// layout, and its two arrays are a CSR that FromCSR accepts back.
func TestBinaryRoundtripCSR(t *testing.T) {
	g := codecTestGraph()
	var buf bytes.Buffer
	if err := graph.WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if got := string(data[:4]); got != "GQC2" {
		t.Fatalf("magic = %q, want GQC2", got)
	}
	n := int(binary.LittleEndian.Uint32(data[4:8]))
	m := int(binary.LittleEndian.Uint64(data[8:16]))
	if n != g.NumVertices() || m != g.NumEdges() {
		t.Fatalf("header (n=%d, m=%d), want (%d, %d)", n, m, g.NumVertices(), g.NumEdges())
	}
	if want := 16 + 4*(n+1) + 8*m; len(data) != want {
		t.Fatalf("size = %d, want %d", len(data), want)
	}
	words := make([]uint32, (len(data)-16)/4)
	for i := range words {
		words[i] = binary.LittleEndian.Uint32(data[16+4*i:])
	}
	g2, err := graph.FromCSR(words[:n+1], words[n+1:], m)
	if err != nil {
		t.Fatal(err)
	}
	requireGraphsEqual(t, g, g2)
}

// TestBinaryRoundtripFile: a file from WriteBinaryFile maps back equal.
func TestBinaryRoundtripFile(t *testing.T) {
	g := codecTestGraph()
	path := filepath.Join(t.TempDir(), "g.gqc")
	if err := graph.WriteBinaryFile(path, g); err != nil {
		t.Fatal(err)
	}
	requireGraphsEqual(t, g, mapFile(t, path))
}

// TestBinaryRoundTrip: the stream writer's output, saved as a file,
// maps back equal on a graph with thousands of edges (several writer
// chunks).
func TestBinaryRoundTrip(t *testing.T) {
	g := datagen.ErdosRenyi(600, 0.05, 3)
	var buf bytes.Buffer
	if err := graph.WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.gqc")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	requireGraphsEqual(t, g, mapFile(t, path))
}

// TestBinaryFileRoundTrip: WriteBinaryFile writes exactly WriteBinary's
// bytes, and the file maps back equal.
func TestBinaryFileRoundTrip(t *testing.T) {
	g := datagen.ErdosRenyi(600, 0.05, 3)
	var buf bytes.Buffer
	if err := graph.WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.gqc")
	if err := graph.WriteBinaryFile(path, g); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, buf.Bytes()) {
		t.Fatal("WriteBinaryFile and WriteBinary wrote different bytes")
	}
	requireGraphsEqual(t, g, mapFile(t, path))
}

// TestReadBinaryRetiredVersion: a GQC1 file is refused for its
// version — an error that says so and how to regenerate the file —
// rather than read, or reported as a corrupt GQC2.
func TestReadBinaryRetiredVersion(t *testing.T) {
	old := append([]byte("GQC1"), make([]byte, 12)...) // a header-only GQC1 file
	path := filepath.Join(t.TempDir(), "v1.gqc")
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := store.MapGraph(path)
	if err == nil {
		m.Close()
	}
	if err == nil || !strings.Contains(err.Error(), "unsupported version") ||
		!strings.Contains(err.Error(), "GQC1") || !strings.Contains(err.Error(), "regenerate") {
		t.Fatalf("GQC1 file: err = %v, want an unsupported-version error naming it", err)
	}
}

// TestReadBinaryTruncatedCSR: every proper prefix of a written file —
// inside the magic, the header, the offsets array or the neighbors
// array — is refused.
func TestReadBinaryTruncatedCSR(t *testing.T) {
	var buf bytes.Buffer
	if err := graph.WriteBinary(&buf, codecTestGraph()); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	dir := t.TempDir()
	for cut := 0; cut < len(full); cut++ {
		path := filepath.Join(dir, "cut.gqc")
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := store.MapGraph(path)
		if err == nil {
			m.Close()
			t.Fatalf("truncation at %d of %d bytes accepted", cut, len(full))
		}
	}
}
