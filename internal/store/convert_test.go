package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"gthinkerqc/internal/graph"
)

// inMemoryGQC2 is the oracle: build with graph.Builder, serialize with
// the standard writer.
func inMemoryGQC2(t testing.TB, n int, edges [][2]graph.V) []byte {
	t.Helper()
	b := graph.NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := graph.WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestConvertRoundtripMatchesInMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	dir := t.TempDir()
	for iter := 0; iter < 25; iter++ {
		n := 1 + rng.Intn(120)
		var edges [][2]graph.V
		for i := 0; i < rng.Intn(5*n); i++ {
			u, v := graph.V(rng.Intn(n)), graph.V(rng.Intn(n))
			edges = append(edges, [2]graph.V{u, v})
			if rng.Intn(3) == 0 {
				edges = append(edges, [2]graph.V{v, u}) // duplicate reversed
			}
		}
		out := filepath.Join(dir, fmt.Sprintf("g%d.gqc", iter))
		w, err := NewExternalGraphWriter(out, ConvertOptions{MemoryBudget: 1, TempDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		for i, e := range edges {
			if err := w.Add(e[0], e[1]); err != nil {
				t.Fatal(err)
			}
			// The 64 KiB budget floor means tiny test inputs never
			// fill the buffer; force run boundaries so the k-way merge
			// (not just the residue fast path) is exercised.
			if i%37 == 36 {
				if err := w.flushRun(); err != nil {
					t.Fatal(err)
				}
			}
		}
		w.Grow(n)
		stats, err := w.Finish()
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		want := inMemoryGQC2(t, n, edges)
		if !bytes.Equal(got, want) {
			t.Fatalf("iter %d: converted file differs from in-memory GQC2 (%d vs %d bytes, %d runs)",
				iter, len(got), len(want), stats.Runs)
		}
		if len(edges) > 37 && stats.Runs == 0 {
			t.Fatalf("iter %d: no runs spilled for %d edges", iter, len(edges))
		}
	}
}

func TestConvertEmptyAndIsolated(t *testing.T) {
	dir := t.TempDir()
	// Empty graph.
	out := filepath.Join(dir, "empty.gqc")
	w, err := NewExternalGraphWriter(out, ConvertOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	got, _ := os.ReadFile(out)
	if want := inMemoryGQC2(t, 0, nil); !bytes.Equal(got, want) {
		t.Fatalf("empty graph: %d bytes vs %d", len(got), len(want))
	}
	// Isolated tail vertices via Grow.
	out2 := filepath.Join(dir, "iso.gqc")
	w2, err := NewExternalGraphWriter(out2, ConvertOptions{})
	if err != nil {
		t.Fatal(err)
	}
	w2.Add(0, 1)
	w2.Grow(10)
	if _, err := w2.Finish(); err != nil {
		t.Fatal(err)
	}
	mg, err := MapGraph(out2)
	if err != nil {
		t.Fatal(err)
	}
	defer mg.Close()
	g := mg.Graph()
	if g.NumVertices() != 10 || g.NumEdges() != 1 {
		t.Fatalf("n=%d m=%d, want 10/1", g.NumVertices(), g.NumEdges())
	}
}

func TestConvertEdgeListMatchesLoad(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var sb strings.Builder
	sb.WriteString("# generated\n")
	for i := 0; i < 3000; i++ {
		fmt.Fprintf(&sb, "%d %d\n", rng.Intn(400)+7, rng.Intn(400)+7)
	}
	// The largest ID appears only in a self loop.
	sb.WriteString("900 900\n")
	text := sb.String()
	for _, lopt := range []graph.LoadOptions{{}, {KeepIDs: true}} {
		res, err := graph.LoadEdgeList(strings.NewReader(text), lopt)
		if err != nil {
			t.Fatal(err)
		}
		if lopt.KeepIDs && res.Graph.NumVertices() != 901 {
			t.Fatalf("KeepIDs: n = %d, want 901", res.Graph.NumVertices())
		}
		var want bytes.Buffer
		if err := graph.WriteBinary(&want, res.Graph); err != nil {
			t.Fatal(err)
		}
		out := filepath.Join(t.TempDir(), "el.gqc")
		stats, orig, err := ConvertEdgeList(strings.NewReader(text), out, lopt, ConvertOptions{MemoryBudget: 1})
		if err != nil {
			t.Fatal(err)
		}
		got, _ := os.ReadFile(out)
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("KeepIDs=%v: converted bytes differ (%d runs)", lopt.KeepIDs, stats.Runs)
		}
		if !slices.Equal(orig, res.OrigID) {
			t.Fatalf("KeepIDs=%v: orig %d entries, want %d", lopt.KeepIDs, len(orig), len(res.OrigID))
		}
	}
}

func TestConvertAbortCleansUp(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "a.gqc")
	w, err := NewExternalGraphWriter(out, ConvertOptions{TempDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	w.Add(0, 1)
	w.Abort()
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Fatalf("output not removed: %v", err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("temp dir not cleaned: %v", ents)
	}
}

func TestConvertFinishTwice(t *testing.T) {
	out := filepath.Join(t.TempDir(), "t.gqc")
	w, err := NewExternalGraphWriter(out, ConvertOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Finish(); err == nil {
		t.Fatal("second Finish did not error")
	}
}

// FuzzRunMerge drives the external sorter/merger with arbitrary edge
// bytes and budgets and cross-checks the output byte-for-byte against
// the in-memory Builder + WriteBinary path.
func FuzzRunMerge(f *testing.F) {
	f.Add([]byte{0, 1, 1, 2, 2, 0}, uint16(0))
	f.Add([]byte{5, 5, 5, 5, 0, 200}, uint16(1))
	f.Add([]byte{}, uint16(3))
	f.Fuzz(func(t *testing.T, raw []byte, budget uint16) {
		if len(raw) > 1<<12 {
			t.Skip()
		}
		var edges [][2]graph.V
		for i := 0; i+1 < len(raw); i += 2 {
			edges = append(edges, [2]graph.V{graph.V(raw[i]), graph.V(raw[i+1])})
		}
		n := 0
		for _, e := range edges {
			n = max(n, int(e[0])+1, int(e[1])+1)
		}
		dir := t.TempDir()
		out := filepath.Join(dir, "f.gqc")
		w, err := NewExternalGraphWriter(out, ConvertOptions{
			MemoryBudget: int64(budget), // clamped to the 64 KiB floor
			TempDir:      dir,
		})
		if err != nil {
			t.Fatal(err)
		}
		// Force multi-run merging regardless of the floor by spilling
		// manually every few edges.
		for i, e := range edges {
			if err := w.Add(e[0], e[1]); err != nil {
				t.Fatal(err)
			}
			if budget%7 == 0 && i%5 == 4 {
				if err := w.flushRun(); err != nil {
					t.Fatal(err)
				}
			}
		}
		w.Grow(n)
		if _, err := w.Finish(); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if want := inMemoryGQC2(t, n, edges); !bytes.Equal(got, want) {
			t.Fatal("merged output differs from in-memory build")
		}
	})
}
