package graph

import (
	"bytes"
	"encoding/binary"
	"path/filepath"
	"strings"
	"testing"
)

func codecTestGraph() *Graph {
	// Two triangles bridged by an edge, plus an isolated vertex —
	// exercises empty rows and non-uniform degrees.
	return FromEdges(7, [][2]V{
		{0, 1}, {1, 2}, {0, 2},
		{3, 4}, {4, 5}, {3, 5},
		{2, 3},
	})
}

func requireGraphsEqual(t *testing.T, a, b *Graph) {
	t.Helper()
	if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() {
		t.Fatalf("shape mismatch: (%d,%d) vs (%d,%d)",
			a.NumVertices(), a.NumEdges(), b.NumVertices(), b.NumEdges())
	}
	for v := 0; v < a.NumVertices(); v++ {
		av, bv := a.Adj(V(v)), b.Adj(V(v))
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

func TestBinaryRoundtripCSR(t *testing.T) {
	g := codecTestGraph()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	if got := buf.Bytes()[:4]; !bytes.Equal(got, magicV2[:]) {
		t.Fatalf("magic = %q, want %q", got, magicV2[:])
	}
	g2, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := g2.Validate(); err != nil {
		t.Fatal(err)
	}
	requireGraphsEqual(t, g, g2)
}

func TestBinaryRoundtripFile(t *testing.T) {
	g := codecTestGraph()
	path := filepath.Join(t.TempDir(), "g.gqc")
	if err := WriteBinaryFile(path, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadBinaryFile(path)
	if err != nil {
		t.Fatal(err)
	}
	requireGraphsEqual(t, g, g2)
}

// TestReadBinaryRetiredVersion: a GQC1 file is refused for its
// version — an error that says so and how to regenerate the file —
// rather than read, or reported as a corrupt GQC2.
func TestReadBinaryRetiredVersion(t *testing.T) {
	old := append([]byte("GQC1"), make([]byte, 12)...) // a header-only GQC1 file
	_, err := ReadBinary(bytes.NewReader(old))
	if err == nil || !strings.Contains(err.Error(), "unsupported version") || !strings.Contains(err.Error(), "GQC1") {
		t.Fatalf("GQC1 file: err = %v, want an unsupported-version error naming it", err)
	}
}

func TestReadBinaryBadMagic(t *testing.T) {
	g := codecTestGraph()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[3] = '9' // "GQC9": unknown version
	if _, err := ReadBinary(bytes.NewReader(data)); err == nil {
		t.Fatal("unknown magic accepted")
	}
}

func TestReadBinaryTruncatedCSR(t *testing.T) {
	g := codecTestGraph()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Every prefix must fail cleanly: magic, header, offsets array,
	// neighbors array.
	for _, cut := range []int{0, 2, 8, 15, 20, len(full) - 3} {
		if _, err := ReadBinary(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestReadBinaryCorruptOffsets(t *testing.T) {
	g := codecTestGraph()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// offsets live after magic(4)+header(12); corrupt the final offset
	// so it disagrees with 2m.
	lastOff := 16 + 4*g.NumVertices()
	binary.LittleEndian.PutUint32(data[lastOff:], 9999)
	if _, err := ReadBinary(bytes.NewReader(data)); err == nil {
		t.Fatal("corrupt offsets accepted")
	}
}

func TestReadBinaryCorruptNeighbor(t *testing.T) {
	g := codecTestGraph()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// First neighbor entry: out-of-range vertex ID must be rejected by
	// validation, not read into a panic later.
	first := 16 + 4*(g.NumVertices()+1)
	binary.LittleEndian.PutUint32(data[first:], 1<<30)
	if _, err := ReadBinary(bytes.NewReader(data)); err == nil {
		t.Fatal("out-of-range neighbor accepted")
	}
}
