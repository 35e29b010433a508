package store

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"

	"gthinkerqc/internal/graph"
)

// External-memory edge-list -> GQC2 conversion.
//
// The in-memory Builder needs ~16 bytes of RAM per undirected edge at
// peak; a billion-edge graph therefore cannot be *prepared* on a
// machine that could happily mine it from an mmap. ExternalGraphWriter
// removes that ceiling with a classic external sort: directed edges
// are packed into uint64s (src<<32 | dst, both directions per edge),
// buffered up to a configurable memory budget, sorted and spilled as
// raw little-endian runs, and finally k-way merged — deduplicating on
// the fly — straight into the GQC2 layout, streaming the neighbors
// array and backfilling the header and offsets. Only the offsets array
// ((n+1)*4 bytes, i.e. vertices not edges) must fit in memory beside
// the budget.
//
// The output is byte-identical to graph.WriteBinaryFile of the graph
// the Builder would have produced from the same edges.

// ConvertOptions tunes the external conversion.
type ConvertOptions struct {
	// MemoryBudget caps the sort buffer, in bytes (8 bytes per
	// directed adjacency entry). Default 256 MiB; values below 64 KiB
	// are rounded up so runs stay sane.
	MemoryBudget int64
	// TempDir hosts the sorted run files; default is the output file's
	// directory (same filesystem, so no surprise cross-device copies).
	TempDir string
}

// ConvertStats reports what a conversion did.
type ConvertStats struct {
	NumVertices int
	NumEdges    int   // undirected, after dedup
	Runs        int   // sorted runs spilled to disk
	RunBytes    int64 // total bytes written to temp runs
}

const (
	defaultConvertBudget = 256 << 20
	minConvertBudget     = 64 << 10
)

// ExternalGraphWriter streams an unordered edge list of any size into
// a GQC2 file under a fixed memory budget. Add edges (duplicates and
// self loops welcome — they are dropped exactly like Builder drops
// them), then Finish. On error or abandonment call Abort to reclaim
// temp space.
type ExternalGraphWriter struct {
	outPath string
	tmpDir  string
	budget  int64
	buf     []uint64
	runs    []string
	stats   ConvertStats
	n       int
	err     error
	done    bool
}

// NewExternalGraphWriter creates outPath (truncating any previous
// file) and prepares a run directory next to it.
func NewExternalGraphWriter(outPath string, opt ConvertOptions) (*ExternalGraphWriter, error) {
	budget := opt.MemoryBudget
	if budget <= 0 {
		budget = defaultConvertBudget
	}
	if budget < minConvertBudget {
		budget = minConvertBudget
	}
	tmpParent := opt.TempDir
	if tmpParent == "" {
		tmpParent = filepath.Dir(outPath)
	}
	tmpDir, err := os.MkdirTemp(tmpParent, "qcconvert-runs-")
	if err != nil {
		return nil, fmt.Errorf("store: convert: %w", err)
	}
	// Fail early if the output path is not creatable.
	f, err := os.Create(outPath)
	if err != nil {
		os.RemoveAll(tmpDir)
		return nil, fmt.Errorf("store: convert: %w", err)
	}
	f.Close()
	return &ExternalGraphWriter{
		outPath: outPath,
		tmpDir:  tmpDir,
		budget:  budget,
		buf:     make([]uint64, 0, budget/8),
	}, nil
}

// Grow ensures the output universe covers vertices [0, n) even if no
// edge touches the tail (isolated vertices from a dense remap).
func (w *ExternalGraphWriter) Grow(n int) {
	if n > w.n {
		w.n = n
	}
}

// Add records the undirected edge {u, v}. Self loops are ignored; the
// universe grows as needed. Errors are sticky and re-reported by
// Finish.
func (w *ExternalGraphWriter) Add(u, v graph.V) error {
	if w.err != nil {
		return w.err
	}
	if u == v {
		return nil
	}
	if n := int(max(u, v)) + 1; n > w.n {
		w.n = n
	}
	w.buf = append(w.buf, uint64(u)<<32|uint64(v), uint64(v)<<32|uint64(u))
	if len(w.buf) == cap(w.buf) {
		w.err = w.flushRun()
	}
	return w.err
}

// flushRun sorts and dedups the buffer and spills it as one raw
// little-endian uint64 run file.
func (w *ExternalGraphWriter) flushRun() error {
	if len(w.buf) == 0 {
		return nil
	}
	sortDedup(&w.buf)
	path := filepath.Join(w.tmpDir, fmt.Sprintf("run-%06d", len(w.runs)))
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("store: convert: %w", err)
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	var scratch [8 << 10]byte
	for off := 0; off < len(w.buf); off += len(scratch) / 8 {
		chunk := w.buf[off:min(off+len(scratch)/8, len(w.buf))]
		for i, x := range chunk {
			binary.LittleEndian.PutUint64(scratch[8*i:], x)
		}
		if _, err := bw.Write(scratch[:8*len(chunk)]); err != nil {
			f.Close()
			return fmt.Errorf("store: convert: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("store: convert: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("store: convert: %w", err)
	}
	w.stats.RunBytes += int64(8 * len(w.buf))
	w.runs = append(w.runs, path)
	w.buf = w.buf[:0]
	return nil
}

// sortDedup sorts *s ascending and removes adjacent duplicates.
func sortDedup(s *[]uint64) {
	slices.Sort(*s)
	*s = slices.Compact(*s)
}

// Finish merges all runs (plus the in-memory residue) into the GQC2
// file and removes the temp runs. The writer is spent afterwards.
func (w *ExternalGraphWriter) Finish() (ConvertStats, error) {
	if w.done {
		return w.stats, fmt.Errorf("store: convert: Finish called twice")
	}
	w.done = true
	defer os.RemoveAll(w.tmpDir)
	if w.err != nil {
		os.Remove(w.outPath)
		return w.stats, w.err
	}
	if w.n > math.MaxUint32 {
		os.Remove(w.outPath)
		return w.stats, fmt.Errorf("store: convert: %d vertices exceed the uint32 range", w.n)
	}
	sortDedup(&w.buf)
	if err := w.merge(); err != nil {
		os.Remove(w.outPath)
		return w.stats, err
	}
	return w.stats, nil
}

// Abort discards all temp state and the (partial) output file.
func (w *ExternalGraphWriter) Abort() {
	w.done = true
	os.RemoveAll(w.tmpDir)
	os.Remove(w.outPath)
}

// runCursor iterates one ascending uint64 stream: either a spilled run
// file or the in-memory residue.
type runCursor struct {
	r   *bufio.Reader // nil for the memory source
	f   *os.File
	mem []uint64
	pos int
	cur uint64
}

// advance loads the next value into cur; false at end of stream.
func (c *runCursor) advance() (bool, error) {
	if c.r == nil {
		if c.pos >= len(c.mem) {
			return false, nil
		}
		c.cur = c.mem[c.pos]
		c.pos++
		return true, nil
	}
	var b [8]byte
	if _, err := io.ReadFull(c.r, b[:]); err != nil {
		if err == io.EOF {
			return false, nil
		}
		return false, fmt.Errorf("store: convert: run read: %w", err)
	}
	c.cur = binary.LittleEndian.Uint64(b[:])
	return true, nil
}

// merge k-way merges every source directly into the GQC2 layout:
// header placeholder, seek past the offsets region, stream neighbors
// in ascending (src, dst) order while accumulating offsets in memory,
// then backfill header + offsets.
func (w *ExternalGraphWriter) merge() error {
	n := w.n
	var cursors []*runCursor
	defer func() {
		for _, c := range cursors {
			if c.f != nil {
				c.f.Close()
			}
		}
	}()
	if len(w.buf) > 0 {
		cursors = append(cursors, &runCursor{mem: w.buf})
	}
	for _, path := range w.runs {
		f, err := os.Open(path)
		if err != nil {
			return fmt.Errorf("store: convert: %w", err)
		}
		cursors = append(cursors, &runCursor{f: f, r: bufio.NewReaderSize(f, 256<<10)})
	}
	// Prime every cursor and heapify on cur.
	heap := make([]*runCursor, 0, len(cursors))
	for _, c := range cursors {
		ok, err := c.advance()
		if err != nil {
			return err
		}
		if ok {
			heap = append(heap, c)
		}
	}
	heapInit(heap)

	out, err := os.OpenFile(w.outPath, os.O_WRONLY, 0)
	if err != nil {
		return fmt.Errorf("store: convert: %w", err)
	}
	defer out.Close()
	offsetsEnd := int64(16 + 4*(n+1))
	if _, err := out.Seek(offsetsEnd, io.SeekStart); err != nil {
		return fmt.Errorf("store: convert: %w", err)
	}
	bw := bufio.NewWriterSize(out, 1<<20)

	offsets := make([]uint32, n+1)
	entries := uint64(0)
	row := 0 // next vertex whose offset is unset
	last := uint64(math.MaxUint64)
	var scratch [4]byte
	for len(heap) > 0 {
		c := heap[0]
		p := c.cur
		if ok, err := c.advance(); err != nil {
			return err
		} else if ok {
			heapFix(heap)
		} else {
			heap[0] = heap[len(heap)-1]
			heap = heap[:len(heap)-1]
			if len(heap) > 0 {
				heapFix(heap)
			}
		}
		if p == last {
			continue // cross-run duplicate
		}
		last = p
		if entries == math.MaxUint32 {
			return fmt.Errorf("store: convert: adjacency exceeds the uint32 offset range")
		}
		src := int(p >> 32)
		for row <= src {
			offsets[row] = uint32(entries)
			row++
		}
		binary.LittleEndian.PutUint32(scratch[:], uint32(p))
		if _, err := bw.Write(scratch[:]); err != nil {
			return fmt.Errorf("store: convert: %w", err)
		}
		entries++
	}
	for row <= n {
		offsets[row] = uint32(entries)
		row++
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("store: convert: %w", err)
	}
	// Backfill header and offsets.
	if _, err := out.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("store: convert: %w", err)
	}
	hw := bufio.NewWriterSize(out, 1<<20)
	var hdr [16]byte
	copy(hdr[:4], gqc2Magic[:])
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(n))
	binary.LittleEndian.PutUint64(hdr[8:16], entries/2)
	if _, err := hw.Write(hdr[:]); err != nil {
		return fmt.Errorf("store: convert: %w", err)
	}
	var obuf [8 << 10]byte
	for off := 0; off < len(offsets); off += len(obuf) / 4 {
		chunk := offsets[off:min(off+len(obuf)/4, len(offsets))]
		for i, x := range chunk {
			binary.LittleEndian.PutUint32(obuf[4*i:], x)
		}
		if _, err := hw.Write(obuf[:4*len(chunk)]); err != nil {
			return fmt.Errorf("store: convert: %w", err)
		}
	}
	if err := hw.Flush(); err != nil {
		return fmt.Errorf("store: convert: %w", err)
	}
	if err := out.Close(); err != nil {
		return fmt.Errorf("store: convert: %w", err)
	}
	w.stats.NumVertices = n
	w.stats.NumEdges = int(entries / 2)
	w.stats.Runs = len(w.runs)
	return nil
}

// heapInit / heapFix / heapDown: a tiny min-heap on runCursor.cur —
// container/heap's interface indirection costs a call per element per
// op, which adds up at one op per merged entry.
func heapInit(h []*runCursor) {
	for i := len(h)/2 - 1; i >= 0; i-- {
		heapDown(h, i)
	}
}

func heapFix(h []*runCursor) { heapDown(h, 0) }

func heapDown(h []*runCursor, i int) {
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h) && h[l].cur < h[small].cur {
			small = l
		}
		if r < len(h) && h[r].cur < h[small].cur {
			small = r
		}
		if small == i {
			return
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
}

// ConvertEdgeList streams the text edge list in r into a GQC2 file at
// outPath under copt's memory budget. It returns the conversion stats
// and the dense-remap table (nil with lopt.KeepIDs), exactly as
// graph.LoadEdgeList would have produced.
func ConvertEdgeList(r io.Reader, outPath string, lopt graph.LoadOptions, copt ConvertOptions) (ConvertStats, []int64, error) {
	w, err := NewExternalGraphWriter(outPath, copt)
	if err != nil {
		return ConvertStats{}, nil, err
	}
	orig, n, err := graph.ScanEdgeList(r, lopt, w.Add)
	if err != nil {
		w.Abort()
		return ConvertStats{}, nil, err
	}
	w.Grow(n)
	stats, err := w.Finish()
	return stats, orig, err
}
