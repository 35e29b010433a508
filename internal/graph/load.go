package graph

import (
	"bufio"
	"fmt"
	"io"
	"os"
)

// LoadOptions controls text edge-list parsing.
type LoadOptions struct {
	// Comments lists line prefixes treated as comments. Defaults to
	// "#" (SNAP) and "%" (KONECT) when nil.
	Comments []string
	// KeepIDs preserves raw numeric IDs as-is (the graph is sized to
	// max ID + 1). When false (default), IDs are remapped to a dense
	// [0, n) range in first-appearance order.
	KeepIDs bool
}

// LoadResult is a loaded graph plus the original-ID mapping (nil when
// KeepIDs was set).
type LoadResult struct {
	Graph *Graph
	// OrigID maps dense vertex ID -> original file ID.
	OrigID []int64
}

// LoadEdgeList parses whitespace-separated "u v" pairs, one per line,
// in the format used by SNAP and KONECT dumps. Extra columns (weights,
// timestamps) are ignored. Self loops and duplicate edges are dropped.
//
// Parsing is one serial pass over the input, a line at a time (see
// ScanEdgeList); lines of any length are accepted.
func LoadEdgeList(r io.Reader, opt LoadOptions) (*LoadResult, error) {
	b := NewBuilder(0)
	orig, n, err := ScanEdgeList(r, opt, func(u, v V) error {
		b.AddEdge(u, v)
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Make sure vertices referenced only in self loops, which the
	// builder drops, exist in the universe.
	b.Grow(n)
	g, err := b.Build()
	if err != nil {
		return nil, err
	}
	return &LoadResult{Graph: g, OrigID: orig}, nil
}

// ScanEdgeList streams the edge list in r through emit without
// materializing it: every parsed pair is handed to emit as dense
// vertex IDs (remapped in first-appearance order, or raw when
// opt.KeepIDs), including self loops — consumers that build graphs
// drop those themselves. It returns the original-ID table (nil when
// KeepIDs) and the vertex-universe size implied by the input, matching
// LoadEdgeList's sizing rules. An emit error aborts the scan.
//
// The scan is one serial pass: each line is read, parsed, remapped and
// emitted in input order, on the caller's goroutine. A line longer
// than the read buffer is reassembled, so lines of any length load.
//
// This is the out-of-core entry point: the external-memory GQC2
// converter feeds an edge spiller from it, so only the remap table —
// vertices, not edges — must fit in memory.
func ScanEdgeList(r io.Reader, opt LoadOptions, emit func(u, v V) error) ([]int64, int, error) {
	comments := opt.Comments
	if comments == nil {
		comments = []string{"#", "%"}
	}
	var remap map[int64]V
	var orig []int64
	if !opt.KeepIDs {
		remap = make(map[int64]V)
	}
	// n is the vertex universe: max ID + 1 under KeepIDs, else the
	// number of distinct IDs. Every parsed ID counts, self loops too.
	n := 0
	dense := func(raw int64) (V, error) {
		if opt.KeepIDs {
			if raw < 0 {
				return 0, fmt.Errorf("graph: negative vertex ID %d", raw)
			}
			if raw >= int64(1)<<32 {
				return 0, fmt.Errorf("graph: vertex ID %d exceeds the uint32 range; remap IDs (drop KeepIDs) to load this file", raw)
			}
			n = max(n, int(raw)+1)
			return V(raw), nil
		}
		if id, ok := remap[raw]; ok {
			return id, nil
		}
		id := V(len(orig))
		remap[raw] = id
		orig = append(orig, raw)
		n = len(orig)
		return id, nil
	}

	br := bufio.NewReaderSize(r, ioBufSize)
	var long []byte // a line longer than br's buffer, reassembled
	for line := 1; ; line++ {
		ln, rerr := br.ReadSlice('\n')
		if rerr == bufio.ErrBufferFull {
			long = append(long[:0], ln...)
			for rerr == bufio.ErrBufferFull {
				ln, rerr = br.ReadSlice('\n')
				long = append(long, ln...)
			}
			ln = long
		}
		if len(ln) > 0 && ln[len(ln)-1] == '\n' {
			ln = ln[:len(ln)-1]
		}
		u, v, ok, err := parseEdgeLine(ln, comments)
		if err != nil {
			return nil, 0, fmt.Errorf("graph: line %d: %v", line, err)
		}
		if ok {
			du, err := dense(u)
			if err != nil {
				return nil, 0, err
			}
			dv, err := dense(v)
			if err != nil {
				return nil, 0, err
			}
			if err := emit(du, dv); err != nil {
				return nil, 0, err
			}
		}
		if rerr == io.EOF {
			return orig, n, nil
		}
		if rerr != nil {
			return nil, 0, fmt.Errorf("graph: scan: %w", rerr)
		}
	}
}

// parseEdgeLine parses one line, without its newline, into a raw
// (u, v) pair. ok is false for blank and comment lines.
func parseEdgeLine(ln []byte, comments []string) (u, v int64, ok bool, err error) {
	ln = trimSpaceASCII(ln)
	if len(ln) == 0 {
		return 0, 0, false, nil
	}
	for _, c := range comments {
		if len(ln) >= len(c) && string(ln[:len(c)]) == c {
			return 0, 0, false, nil
		}
	}
	f1, rest := nextField(ln)
	f2, _ := nextField(rest)
	if len(f2) == 0 {
		return 0, 0, false, fmt.Errorf("want at least 2 fields, got %q", string(ln))
	}
	if u, err = parseIntBytes(f1); err != nil {
		return 0, 0, false, err
	}
	if v, err = parseIntBytes(f2); err != nil {
		return 0, 0, false, err
	}
	return u, v, true, nil
}

func isSpaceASCII(b byte) bool {
	return b == ' ' || b == '\t' || b == '\r' || b == '\v' || b == '\f'
}

func trimSpaceASCII(b []byte) []byte {
	for len(b) > 0 && isSpaceASCII(b[0]) {
		b = b[1:]
	}
	for len(b) > 0 && isSpaceASCII(b[len(b)-1]) {
		b = b[:len(b)-1]
	}
	return b
}

// nextField returns the first whitespace-delimited field of b and the
// remainder after it.
func nextField(b []byte) (field, rest []byte) {
	for len(b) > 0 && isSpaceASCII(b[0]) {
		b = b[1:]
	}
	i := 0
	for i < len(b) && !isSpaceASCII(b[i]) {
		i++
	}
	return b[:i], b[i:]
}

// parseIntBytes is a garbage-free strconv.ParseInt(s, 10, 64) over a
// byte slice.
func parseIntBytes(f []byte) (int64, error) {
	s := f
	neg := false
	if len(s) > 0 && (s[0] == '+' || s[0] == '-') {
		neg = s[0] == '-'
		s = s[1:]
	}
	if len(s) == 0 {
		return 0, fmt.Errorf("invalid integer %q", string(f))
	}
	var x uint64
	for _, ch := range s {
		d := ch - '0'
		if d > 9 {
			return 0, fmt.Errorf("invalid integer %q", string(f))
		}
		if x > (uint64(1)<<63)/10+9 {
			return 0, fmt.Errorf("integer %q out of int64 range", string(f))
		}
		x = x*10 + uint64(d)
	}
	if (!neg && x > 1<<63-1) || (neg && x > 1<<63) {
		return 0, fmt.Errorf("integer %q out of int64 range", string(f))
	}
	if neg {
		return -int64(x), nil
	}
	return int64(x), nil
}

// LoadEdgeListFile opens path and calls LoadEdgeList.
func LoadEdgeListFile(path string, opt LoadOptions) (*LoadResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadEdgeList(f, opt)
}

// WriteEdgeList writes the graph as "u v" lines (each undirected edge
// once, with u < v), suitable for re-loading with LoadEdgeList.
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# gthinkerqc edge list: %d vertices, %d edges\n", g.NumVertices(), g.NumEdges())
	for v := 0; v < g.NumVertices(); v++ {
		for _, u := range g.Adj(V(v)) {
			if u > V(v) {
				if _, err := fmt.Fprintf(bw, "%d %d\n", v, u); err != nil {
					return err
				}
			}
		}
	}
	return bw.Flush()
}

// WriteEdgeListFile writes the graph to path via WriteEdgeList.
func WriteEdgeListFile(path string, g *Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteEdgeList(f, g); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
