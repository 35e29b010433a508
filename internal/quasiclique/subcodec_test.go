package quasiclique

import (
	"strings"
	"testing"

	"gthinkerqc/internal/datagen"
	"gthinkerqc/internal/graph"
	"gthinkerqc/internal/store"
)

func buildCodecSub(t testing.TB) *Sub {
	g := datagen.ErdosRenyi(200, 0.08, 3)
	verts := make([]graph.V, 0, 120)
	for v := 0; v < 120; v++ {
		verts = append(verts, graph.V(v))
	}
	return SubFromGraph(g, verts)
}

func TestSubRawRoundTrip(t *testing.T) {
	subs := []*Sub{
		buildCodecSub(t),
		{}, // empty
		{Label: []graph.V{5}, Adj: [][]uint32{{}}}, // isolated vertex
	}
	for i, s := range subs {
		data := s.AppendRaw(nil)
		var got Sub
		c := store.NewCursor(data)
		if err := got.DecodeRaw(c); err != nil {
			t.Fatalf("sub %d: %v", i, err)
		}
		if c.Remaining() != 0 {
			t.Fatalf("sub %d: %d bytes left", i, c.Remaining())
		}
		if got.N() != s.N() || got.NumEdges() != s.NumEdges() {
			t.Fatalf("sub %d: shape %d/%d vs %d/%d", i, got.N(), got.NumEdges(), s.N(), s.NumEdges())
		}
		for v := range s.Adj {
			if len(s.Adj[v]) != len(got.Adj[v]) {
				t.Fatalf("sub %d vertex %d: row %v vs %v", i, v, got.Adj[v], s.Adj[v])
			}
			for j := range s.Adj[v] {
				if s.Adj[v][j] != got.Adj[v][j] {
					t.Fatalf("sub %d vertex %d: row differs", i, v)
				}
			}
		}
		for j := range s.Label {
			if s.Label[j] != got.Label[j] {
				t.Fatalf("sub %d: label %d differs", i, j)
			}
		}
	}
}

func TestSubDecodeRawRejectsCorruption(t *testing.T) {
	s := buildCodecSub(t)
	good := s.AppendRaw(nil)
	cases := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"truncated labels", func(b []byte) []byte { return b[:10] }},
		{"truncated flat", func(b []byte) []byte { return b[:len(b)-2] }},
		{"row length overflow", func(b []byte) []byte {
			// First rowLen lives right after n, flatLen, labels.
			off := 8 + 4*s.N()
			b[off], b[off+1], b[off+2], b[off+3] = 0xff, 0xff, 0xff, 0xff
			return b
		}},
		{"out-of-range local index", func(b []byte) []byte {
			// Last flat entry.
			off := len(b) - 4
			b[off], b[off+1], b[off+2], b[off+3] = 0xff, 0xff, 0xff, 0xff
			return b
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := tc.mutate(append([]byte(nil), good...))
			var got Sub
			err := got.DecodeRaw(store.NewCursor(data))
			if err == nil {
				t.Fatal("corrupt Sub decoded cleanly")
			}
			if !strings.Contains(err.Error(), "quasiclique") {
				t.Fatalf("unhelpful error: %v", err)
			}
		})
	}
}

// FuzzSubDecodeRaw: arbitrary bytes must never panic the decoder.
func FuzzSubDecodeRaw(f *testing.F) {
	f.Add([]byte{})
	f.Add((&Sub{Label: []graph.V{1, 2}, Adj: [][]uint32{{1}, {0}}}).AppendRaw(nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		var s Sub
		_ = s.DecodeRaw(store.NewCursor(data))
	})
}
