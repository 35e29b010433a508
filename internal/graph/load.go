package graph

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
)

// loadBlockSize is the read-block granularity of the chunked parser.
// A variable so tests can shrink it to exercise chunk boundaries and
// block growth on small inputs.
var loadBlockSize = 1 << 20

// LoadOptions controls text edge-list parsing.
type LoadOptions struct {
	// Comments lists line prefixes treated as comments. Defaults to
	// "#" (SNAP) and "%" (KONECT) when nil.
	Comments []string
	// KeepIDs preserves raw numeric IDs as-is (the graph is sized to
	// max ID + 1). When false (default), IDs are remapped to a dense
	// [0, n) range in first-appearance order.
	KeepIDs bool
	// SizeHint, when positive, pre-sizes the dense-remap table and the
	// original-ID slice for roughly this many distinct vertices,
	// avoiding rehash storms on large inputs. Purely an optimization;
	// the structures still grow past it.
	SizeHint int
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
// Parsing is chunked: the input is read in large blocks, split at line
// boundaries, and the blocks are parsed in parallel on GOMAXPROCS
// goroutines with the dense remap applied in input order, so the
// resulting graph is identical to a line-at-a-time parse. Lines of any
// length are accepted (the read block grows to fit).
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
		remap = make(map[int64]V, opt.SizeHint)
		if opt.SizeHint > 0 {
			orig = make([]int64, 0, opt.SizeHint)
		}
	}

	type chunk struct {
		data    []byte
		pairs   []int64
		lines   int
		errLine int // 1-based within the chunk, 0 when err is nil
		err     error
		done    chan struct{}
	}
	workers := runtime.GOMAXPROCS(0)
	work := make(chan *chunk, workers)
	order := make(chan *chunk, 2*workers+2)
	free := make(chan []byte, cap(order))
	var abort atomic.Bool

	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range work {
				if !abort.Load() {
					c.pairs, c.lines, c.errLine, c.err = parseEdgeChunk(c.data, comments)
				}
				close(c.done)
			}
		}()
	}

	var readErr error
	go func() {
		defer close(order)
		defer close(work)
		var carry []byte
		eof := false
		for !eof && !abort.Load() {
			var block []byte
			select {
			case b := <-free:
				block = b[:0]
			default:
				block = make([]byte, 0, loadBlockSize)
			}
			block = append(block, carry...)
			// Read until the block holds at least one full line (or
			// EOF), growing it when a single line exceeds the block.
			sawNL := bytes.IndexByte(block, '\n') >= 0
			for !sawNL {
				if len(block) == cap(block) {
					grown := make([]byte, len(block), 2*cap(block))
					copy(grown, block)
					block = grown
				}
				m, err := r.Read(block[len(block):cap(block)])
				if m > 0 {
					sawNL = bytes.IndexByte(block[len(block):len(block)+m], '\n') >= 0
					block = block[:len(block)+m]
				}
				if err == io.EOF {
					eof = true
					break
				}
				if err != nil {
					readErr = err
					eof = true
					break
				}
			}
			cut := bytes.LastIndexByte(block, '\n') + 1
			if eof {
				cut = len(block)
			}
			carry = append(carry[:0], block[cut:]...)
			if cut == 0 {
				continue
			}
			c := &chunk{data: block[:cut], done: make(chan struct{})}
			work <- c
			order <- c
		}
	}()

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
	line := 0
	var ferr error
	for c := range order {
		<-c.done
		if ferr == nil {
			if c.err != nil {
				ferr = fmt.Errorf("graph: line %d: %v", line+c.errLine, c.err)
			}
			for i := 0; i+1 < len(c.pairs) && ferr == nil; i += 2 {
				du, err := dense(c.pairs[i])
				if err != nil {
					ferr = err
					break
				}
				dv, err := dense(c.pairs[i+1])
				if err != nil {
					ferr = err
					break
				}
				ferr = emit(du, dv)
			}
			if ferr != nil {
				abort.Store(true)
			}
		}
		line += c.lines
		select {
		case free <- c.data[:0]:
		default:
		}
	}
	wg.Wait()
	if ferr != nil {
		return nil, 0, ferr
	}
	if readErr != nil {
		return nil, 0, fmt.Errorf("graph: scan: %w", readErr)
	}
	return orig, n, nil
}

// parseEdgeChunk parses one block of whole lines into flat raw (u, v)
// pairs. It returns the pairs, the number of lines consumed, and — on
// error — the 1-based line index within the chunk.
func parseEdgeChunk(data []byte, comments []string) (pairs []int64, lines, errLine int, err error) {
	// Guess two numbers ~8 bytes each per line to size the result.
	pairs = make([]int64, 0, len(data)/8)
next:
	for len(data) > 0 {
		var ln []byte
		if nl := bytes.IndexByte(data, '\n'); nl >= 0 {
			ln, data = data[:nl], data[nl+1:]
		} else {
			ln, data = data, nil
		}
		lines++
		ln = trimSpaceASCII(ln)
		if len(ln) == 0 {
			continue
		}
		for _, c := range comments {
			if len(ln) >= len(c) && string(ln[:len(c)]) == c {
				continue next
			}
		}
		f1, rest := nextField(ln)
		f2, _ := nextField(rest)
		if len(f2) == 0 {
			return pairs, lines, lines, fmt.Errorf("want at least 2 fields, got %q", string(ln))
		}
		u, perr := parseIntBytes(f1)
		if perr != nil {
			return pairs, lines, lines, perr
		}
		v, perr := parseIntBytes(f2)
		if perr != nil {
			return pairs, lines, lines, perr
		}
		pairs = append(pairs, u, v)
	}
	return pairs, lines, 0, nil
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
