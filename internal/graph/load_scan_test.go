package graph

import (
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"
)

// smallReads hands out at most n bytes per Read, so lines arrive split
// across reads at every offset.
type smallReads struct {
	r io.Reader
	n int
}

func (s *smallReads) Read(p []byte) (int, error) {
	if len(p) > s.n {
		p = p[:s.n]
	}
	return s.r.Read(p)
}

func TestLoadEdgeListChunkBoundaries(t *testing.T) {
	// Build a reference input and parse it through readers that return
	// at most block bytes per Read; the result must be identical
	// regardless of where the reads split lines.
	rng := rand.New(rand.NewSource(7))
	var sb strings.Builder
	sb.WriteString("# header comment\n")
	for i := 0; i < 500; i++ {
		fmt.Fprintf(&sb, "%d %d\n", rng.Intn(300)+1000, rng.Intn(300)+1000)
		if i%50 == 0 {
			sb.WriteString("% konect comment\n\n")
		}
	}
	input := sb.String()
	want, err := LoadEdgeList(strings.NewReader(input), LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, bs := range []int{1, 2, 3, 7, 16, 64, 1024} {
		t.Run(fmt.Sprintf("block=%d", bs), func(t *testing.T) {
			got, err := LoadEdgeList(&smallReads{strings.NewReader(input), bs}, LoadOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if !graphsEqual(want.Graph, got.Graph) {
				t.Fatal("graph differs from single-read parse")
			}
			if len(want.OrigID) != len(got.OrigID) {
				t.Fatalf("OrigID len %d vs %d", len(want.OrigID), len(got.OrigID))
			}
			for i := range want.OrigID {
				if want.OrigID[i] != got.OrigID[i] {
					t.Fatalf("OrigID[%d] = %d, want %d (remap order not preserved)", i, got.OrigID[i], want.OrigID[i])
				}
			}
		})
	}
}

func TestLoadEdgeListLongLine(t *testing.T) {
	// Lines far beyond the read buffer must parse, two in a row (the
	// old Scanner path errored past its fixed 1 MiB buffer).
	pad := strings.Repeat("x", ioBufSize+4096)
	input := "# " + pad + "\n0 1 " + pad + "\n1 2\n"
	res, err := LoadEdgeList(strings.NewReader(input), LoadOptions{KeepIDs: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Graph.NumEdges() != 2 || res.Graph.NumVertices() != 3 {
		t.Fatalf("n=%d m=%d, want 3/2", res.Graph.NumVertices(), res.Graph.NumEdges())
	}
}

func TestLoadEdgeListScannerCapGone(t *testing.T) {
	// Over 1 MiB on one line — the exact case the Scanner buffer cap
	// used to reject.
	var sb strings.Builder
	sb.WriteString("3 4")
	sb.WriteString(strings.Repeat(" 9", 1<<20))
	sb.WriteString("\n")
	res, err := LoadEdgeList(strings.NewReader(sb.String()), LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Graph.NumEdges() != 1 {
		t.Fatalf("edges = %d, want 1", res.Graph.NumEdges())
	}
}

func TestLoadEdgeListErrorLineNumbers(t *testing.T) {
	input := "1 2\n2 3\n\n# c\nbogus\n3 4\n"
	_, err := LoadEdgeList(&smallReads{strings.NewReader(input), 3}, LoadOptions{})
	if err == nil || !strings.Contains(err.Error(), "line 5") {
		t.Fatalf("err = %v, want line 5 mentioned", err)
	}
	// A line longer than the read buffer counts once.
	input = "1 2\n# " + strings.Repeat("x", ioBufSize+10) + "\nbogus\n"
	_, err = LoadEdgeList(strings.NewReader(input), LoadOptions{})
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("err = %v, want line 3 mentioned", err)
	}
	_, err = LoadEdgeList(strings.NewReader("1 2\n1 2x\n"), LoadOptions{})
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("err = %v, want line 2 mentioned", err)
	}
}

func TestLoadEdgeListKeepIDsOverflow(t *testing.T) {
	_, err := LoadEdgeList(strings.NewReader("0 4294967296\n"), LoadOptions{KeepIDs: true})
	if err == nil || !strings.Contains(err.Error(), "uint32") {
		t.Fatalf("err = %v, want uint32 range error", err)
	}
}

func TestScanEdgeListStreams(t *testing.T) {
	var got [][2]V
	orig, n, err := ScanEdgeList(strings.NewReader("5 6\n6 6\n6 7\n"), LoadOptions{}, func(u, v V) error {
		got = append(got, [2]V{u, v})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Self loops are emitted (consumers drop them); remap is in
	// first-appearance order.
	want := [][2]V{{0, 1}, {1, 1}, {1, 2}}
	if len(got) != len(want) {
		t.Fatalf("emitted %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("emitted %v, want %v", got, want)
		}
	}
	if n != 3 || len(orig) != 3 || orig[2] != 7 {
		t.Fatalf("n=%d orig=%v", n, orig)
	}
}

func TestScanEdgeListEmitError(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < 10000; i++ {
		fmt.Fprintf(&sb, "%d %d\n", i, i+1)
	}
	boom := fmt.Errorf("boom")
	_, _, err := ScanEdgeList(strings.NewReader(sb.String()), LoadOptions{}, func(u, v V) error {
		if u >= 5 {
			return boom
		}
		return nil
	})
	if err != boom {
		t.Fatalf("err = %v, want boom", err)
	}
}

func TestParseIntBytes(t *testing.T) {
	cases := []struct {
		in   string
		want int64
		ok   bool
	}{
		{"0", 0, true},
		{"42", 42, true},
		{"-17", -17, true},
		{"+8", 8, true},
		{"9223372036854775807", 1<<63 - 1, true},
		{"-9223372036854775808", -1 << 63, true},
		{"9223372036854775808", 0, false},
		{"-9223372036854775809", 0, false},
		{"184467440737095516160", 0, false},
		{"", 0, false},
		{"-", 0, false},
		{"12a", 0, false},
		{"1.5", 0, false},
	}
	for _, c := range cases {
		got, err := parseIntBytes([]byte(c.in))
		if c.ok != (err == nil) || (c.ok && got != c.want) {
			t.Fatalf("parseIntBytes(%q) = %d, %v; want %d ok=%v", c.in, got, err, c.want, c.ok)
		}
	}
}
