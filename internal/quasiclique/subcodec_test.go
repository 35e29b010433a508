package quasiclique

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"strings"
	"testing"

	"gthinkerqc/internal/bitset"
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

// rowsMatchAdj reports whether rows, n rows of bitset.WordsFor(n)
// words, hold exactly the sorted adjacency lists adj.
func rowsMatchAdj(rows []uint64, adj [][]uint32) error {
	n := len(adj)
	stride := bitset.WordsFor(n)
	if len(rows) != n*stride {
		return fmt.Errorf("%d row words, want %d", len(rows), n*stride)
	}
	for i, want := range adj {
		got := bitset.AppendBits(nil, rows[i*stride:(i+1)*stride])
		if !slices.Equal(got, want) {
			return fmt.Errorf("row %d = %v, want %v", i, got, want)
		}
	}
	return nil
}

// TestSubRawRoundTrip: a list Sub is written as its rows and comes back
// a rows Sub with the same labels and edges; a rows Sub re-encodes to
// the bytes it came from.
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
		if got.N() != s.N() || got.NumEdges() != s.NumEdges() || got.Adj != nil {
			t.Fatalf("sub %d: shape %d/%d vs %d/%d, Adj %v", i, got.N(), got.NumEdges(), s.N(), s.NumEdges(), got.Adj)
		}
		if !slices.Equal(got.Label, s.Label) {
			t.Fatalf("sub %d: labels differ", i)
		}
		if err := rowsMatchAdj(got.Rows, s.Adj); err != nil {
			t.Fatalf("sub %d: %v", i, err)
		}
		if again := got.AppendRaw(nil); !bytes.Equal(again, data) {
			t.Fatalf("sub %d: a rows Sub re-encodes to other bytes", i)
		}
	}
}

func TestSubDecodeRawRejectsCorruption(t *testing.T) {
	s := buildCodecSub(t) // 120 vertices: two words a row, 56 bits used in the second
	good := s.AppendRaw(nil)
	n := s.N()
	rowsAt := 4 + 4*n
	word := func(b []byte, row, w int) []byte { return b[rowsAt+8*(2*row+w):] }
	cases := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"truncated labels", func(b []byte) []byte { return b[:10] }},
		{"truncated words", func(b []byte) []byte { return b[:len(b)-2] }},
		{"n past matrixCap", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b, uint32(matrixCap+1))
			return b
		}},
		{"out-of-range local index", func(b []byte) []byte {
			// Bit 63 of row 0's second word is local index 127 ≥ 120.
			w := word(b, 0, 1)
			binary.LittleEndian.PutUint64(w, binary.LittleEndian.Uint64(w)|1<<63)
			return b
		}},
		{"self loop", func(b []byte) []byte {
			w := word(b, 3, 0)
			binary.LittleEndian.PutUint64(w, binary.LittleEndian.Uint64(w)|1<<3)
			return b
		}},
		{"labels out of order", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[4+4*2:], 0) // label 2 := 0 ≤ label 1
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

// FuzzSubDecodeRaw: arbitrary bytes must never panic the decoder, and a
// record it accepts re-encodes to the same bytes.
func FuzzSubDecodeRaw(f *testing.F) {
	f.Add([]byte{})
	f.Add((&Sub{Label: []graph.V{1, 2}, Adj: [][]uint32{{1}, {0}}}).AppendRaw(nil))
	m := NewPooledMiner(Params{Gamma: 0.5, MinSize: 2}, Options{})
	m.Reset(buildCodecSub(f))
	child, _, _ := m.Subtask([]uint32{0, 5}, []uint32{70, 7, 64, 119})
	f.Add(child.AppendRaw(nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		var s Sub
		c := store.NewCursor(data)
		if s.DecodeRaw(c) != nil {
			return
		}
		if again := s.AppendRaw(nil); !bytes.Equal(again, data[:len(data)-c.Remaining()]) {
			t.Fatal("accepted record does not re-encode to itself")
		}
	})
}
