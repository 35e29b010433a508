package store_test

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"gthinkerqc/internal/datagen"
	"gthinkerqc/internal/graph"
	"gthinkerqc/internal/quasiclique"
	"gthinkerqc/internal/store"
)

func writeTestGraph(t *testing.T) (string, *graph.Graph) {
	t.Helper()
	g := datagen.ErdosRenyi(400, 0.05, 7)
	path := filepath.Join(t.TempDir(), "g.gqc")
	if err := graph.WriteBinaryFile(path, g); err != nil {
		t.Fatal(err)
	}
	return path, g
}

func graphsEqual(t *testing.T, a, b *graph.Graph) {
	t.Helper()
	if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() {
		t.Fatalf("shape: %d/%d vs %d/%d", a.NumVertices(), a.NumEdges(), b.NumVertices(), b.NumEdges())
	}
	for v := 0; v < a.NumVertices(); v++ {
		ra, rb := a.Adj(graph.V(v)), b.Adj(graph.V(v))
		if len(ra) != len(rb) {
			t.Fatalf("vertex %d: degree %d vs %d", v, len(ra), len(rb))
		}
		for i := range ra {
			if ra[i] != rb[i] {
				t.Fatalf("vertex %d: adjacency differs at %d", v, i)
			}
		}
	}
}

// onEachPath runs f once on the mapped load and once with mmap
// disabled, the heap read a non-unix or big-endian host takes; every
// MapGraph behaviour must hold on both.
func onEachPath(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	for _, p := range []struct {
		name   string
		mapped bool
	}{{"mapped", true}, {"heap", false}} {
		t.Run(p.name, func(t *testing.T) {
			store.SetMmapDisabledForTest(!p.mapped)
			defer store.SetMmapDisabledForTest(false)
			f(t)
		})
	}
}

func TestMapGraphMatchesHeapLoad(t *testing.T) {
	path, orig := writeTestGraph(t)
	m, err := store.MapGraph(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if !m.Mapped() {
		t.Fatal("expected a real mapping on this platform")
	}
	graphsEqual(t, orig, m.Graph())
	store.SetMmapDisabledForTest(true)
	defer store.SetMmapDisabledForTest(false)
	heap, err := store.MapGraph(path)
	if err != nil {
		t.Fatal(err)
	}
	graphsEqual(t, heap.Graph(), m.Graph())
}

// TestMapGraphRoundTrip: every graph graph.WriteBinaryFile writes loads
// back equal, valid and under the GQC2 magic — the empty graph, empty
// rows, non-uniform degrees, and random graphs with self loops and
// duplicates dropped by the builder.
func TestMapGraphRoundTrip(t *testing.T) {
	cases := map[string]*graph.Graph{
		"empty":    graph.FromEdges(0, nil),
		"isolated": graph.FromEdges(5, nil),
		// Two triangles bridged by an edge, plus an isolated vertex.
		"two triangles": graph.FromEdges(7, [][2]graph.V{
			{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}, {2, 3},
		}),
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20; i++ {
		n := rng.Intn(40)
		b := graph.NewBuilder(n)
		for j := 0; j < n; j++ {
			b.AddEdge(graph.V(rng.Intn(n+1)), graph.V(rng.Intn(n+1)))
		}
		cases[fmt.Sprintf("random %d", i)] = b.MustBuild()
	}
	for name, g := range cases {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "g.gqc")
			if err := graph.WriteBinaryFile(path, g); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if string(data[:4]) != "GQC2" {
				t.Fatalf("magic = %q, want GQC2", data[:4])
			}
			onEachPath(t, func(t *testing.T) {
				m, err := store.MapGraph(path)
				if err != nil {
					t.Fatal(err)
				}
				defer m.Close()
				if err := m.Graph().Validate(); err != nil {
					t.Fatal(err)
				}
				graphsEqual(t, g, m.Graph())
			})
		})
	}
}

// TestMapGraphMinesIdentically is the end-to-end guarantee: a mapped
// graph and the in-memory graph it was written from produce
// bit-identical mining output.
func TestMapGraphMinesIdentically(t *testing.T) {
	g, _, err := datagen.Planted(datagen.PlantedConfig{
		N: 300, Background: 0.02, Seed: 11,
		Communities: []datagen.Community{{Size: 12, Density: 0.95, Count: 3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "planted.gqc")
	if err := graph.WriteBinaryFile(path, g); err != nil {
		t.Fatal(err)
	}
	m, err := store.MapGraph(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if !m.Mapped() {
		t.Fatal("expected a mapping")
	}
	par := quasiclique.Params{Gamma: 0.9, MinSize: 8}
	want, _, err := quasiclique.MineGraph(g, par, quasiclique.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := quasiclique.MineGraph(m.Graph(), par, quasiclique.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("mapped graph mined %d cliques, in-memory graph %d; outputs differ", len(got), len(want))
	}
	if len(want) == 0 {
		t.Fatal("degenerate test: no cliques found")
	}
}

func TestMapGraphFallbackPath(t *testing.T) {
	path, orig := writeTestGraph(t)
	store.SetMmapDisabledForTest(true)
	defer store.SetMmapDisabledForTest(false)
	m, err := store.MapGraph(path)
	if err != nil {
		t.Fatal(err)
	}
	if m.Mapped() {
		t.Fatal("fallback still mapped")
	}
	graphsEqual(t, orig, m.Graph())
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal("Close not idempotent:", err)
	}
}

// TestMapGraphRetiredVersion: a well-formed GQC1 (degree-array) file is
// refused by name — the cluster path a stale file would enter through.
func TestMapGraphRetiredVersion(t *testing.T) {
	// Triangle 0-1-2: degrees [2 2 2], adjacency 1 2 / 0 2 / 0 1.
	var b []byte
	b = append(b, 'G', 'Q', 'C', '1')
	b = binary.LittleEndian.AppendUint32(b, 3)
	b = binary.LittleEndian.AppendUint64(b, 3)
	for _, v := range []uint32{2, 2, 2, 1, 2, 0, 2, 0, 1} {
		b = binary.LittleEndian.AppendUint32(b, v)
	}
	path := filepath.Join(t.TempDir(), "v1.gqc")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	onEachPath(t, func(t *testing.T) {
		_, err := store.MapGraph(path)
		if err == nil || !strings.Contains(err.Error(), `unsupported version "GQC1"`) {
			t.Fatalf("GQC1 file: err = %v, want an unsupported-version error naming it", err)
		}
	})
}

// TestMapGraphRejectsCorruptFiles: every damaged file is an error on
// both load paths, and each case names the check that must catch it.
// The row cases (out of range, self loop, unsorted, duplicate) pass
// the header, size and offsets checks; only the row scan refuses them.
func TestMapGraphRejectsCorruptFiles(t *testing.T) {
	path, g := writeTestGraph(t)
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumVertices()
	// Vertex 0's row starts the neighbors array.
	row0 := 16 + 4*(n+1)
	if g.Degree(0) < 2 {
		t.Fatal("test graph: vertex 0 needs two neighbours")
	}
	put := func(off int, v uint32) func([]byte) []byte {
		return func(b []byte) []byte { binary.LittleEndian.PutUint32(b[off:], v); return b }
	}
	cut := func(size int) func([]byte) []byte {
		return func(b []byte) []byte { return b[:size] }
	}
	cases := []struct {
		name    string
		corrupt func([]byte) []byte
		want    string // substring of the error
	}{
		{"empty file", cut(0), "short file"},
		{"truncated header", cut(10), "short file"},
		{"truncated offsets", cut(20), "size"},
		{"truncated payload", cut(len(good) - 4), "size"},
		{"trailing bytes", func(b []byte) []byte { return append(b, 0) }, "size"},
		{"bad magic", func(b []byte) []byte { b[0] = 'X'; return b }, "bad magic"},
		{"unknown version", func(b []byte) []byte { b[3] = '9'; return b }, "bad magic"},
		// Top bit set on the true count: 2m and the implied size wrap
		// back to the real ones, so only the range check refuses it.
		{"huge edge count", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[8:], 1<<63|uint64(g.NumEdges()))
			return b
		}, "exceeds uint32"},
		// offsets start at byte 16; make offsets[1] huge.
		{"non-monotone offsets", put(20, 0xfffffff0), "not monotone"},
		{"offsets end mismatch", put(16+4*n, uint32(2*g.NumEdges()+2)), "offsets end"},
		// The header claims one more edge and the file is padded to the
		// size that implies: the offsets no longer cover the array.
		{"edge count mismatch", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[8:], uint64(g.NumEdges()+1))
			return append(b, make([]byte, 8)...)
		}, "offsets end"},
		{"out-of-range neighbour", put(row0+4*(g.Degree(0)-1), 999), "out of range"},
		{"self loop", put(row0, 0), "self loop"},
		{"unsorted row", func(b []byte) []byte {
			a0, a1 := g.Adj(0)[0], g.Adj(0)[1]
			return put(row0+4, a0)(put(row0, a1)(b))
		}, "not strictly sorted"},
		{"duplicate in row", put(row0+4, g.Adj(0)[0]), "not strictly sorted"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := filepath.Join(t.TempDir(), "bad.gqc")
			if err := os.WriteFile(p, c.corrupt(append([]byte(nil), good...)), 0o644); err != nil {
				t.Fatal(err)
			}
			onEachPath(t, func(t *testing.T) {
				m, err := store.MapGraph(p)
				if err == nil {
					m.Close()
					t.Fatal("accepted")
				}
				if !strings.Contains(err.Error(), c.want) {
					t.Fatalf("err = %v, want it to mention %q", err, c.want)
				}
			})
		})
	}
	t.Run("missing file", func(t *testing.T) {
		onEachPath(t, func(t *testing.T) {
			if _, err := store.MapGraph(filepath.Join(t.TempDir(), "nope.gqc")); err == nil {
				t.Fatal("accepted")
			}
		})
	})
}
