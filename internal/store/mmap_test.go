package store_test

import (
	"encoding/binary"
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
	heap, err := graph.ReadBinaryFile(path)
	if err != nil {
		t.Fatal(err)
	}
	graphsEqual(t, heap, m.Graph())
}

// TestMapGraphMinesIdentically is the end-to-end guarantee: a mapped
// graph and a heap-loaded graph produce bit-identical mining output.
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
		t.Fatalf("mapped graph mined %d cliques, heap graph %d; outputs differ", len(got), len(want))
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
	if _, err := store.MapGraph(path); err == nil || !strings.Contains(err.Error(), "unsupported version") {
		t.Fatalf("GQC1 file: err = %v, want an unsupported-version error", err)
	}
}

func TestMapGraphRejectsCorruptFiles(t *testing.T) {
	path, _ := writeTestGraph(t)
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	write := func(t *testing.T, data []byte) string {
		p := filepath.Join(t.TempDir(), "bad.gqc")
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	t.Run("truncated header", func(t *testing.T) {
		if _, err := store.MapGraph(write(t, good[:10])); err == nil {
			t.Fatal("accepted")
		}
	})
	t.Run("truncated payload", func(t *testing.T) {
		if _, err := store.MapGraph(write(t, good[:len(good)-4])); err == nil {
			t.Fatal("accepted")
		}
	})
	t.Run("trailing bytes", func(t *testing.T) {
		if _, err := store.MapGraph(write(t, append(append([]byte(nil), good...), 0))); err == nil {
			t.Fatal("accepted")
		}
	})
	t.Run("bad magic", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[0] = 'X'
		if _, err := store.MapGraph(write(t, bad)); err == nil {
			t.Fatal("accepted")
		}
	})
	t.Run("non-monotone offsets", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		// offsets start at byte 16; make offsets[1] huge.
		binary.LittleEndian.PutUint32(bad[20:], 0xfffffff0)
		if _, err := store.MapGraph(write(t, bad)); err == nil {
			t.Fatal("accepted")
		}
	})
	t.Run("missing file", func(t *testing.T) {
		if _, err := store.MapGraph(filepath.Join(t.TempDir(), "nope.gqc")); err == nil {
			t.Fatal("accepted")
		}
	})
}
