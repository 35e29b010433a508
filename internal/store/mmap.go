package store

import (
	"encoding/binary"
	"fmt"
	"os"

	"gthinkerqc/internal/graph"
)

// gqc2Magic is the CSR graph format written by graph.WriteBinary; only
// this version is laid out as the in-memory arrays verbatim, so only
// it is mappable. Other versions fall back to the heap loader.
var gqc2Magic = [4]byte{'G', 'Q', 'C', '2'}

const gqc2HeaderSize = 16 // magic + n(uint32) + m(uint64)

// mmapDisabled forces the heap fallback; tests set it to exercise the
// portable path on platforms where mmap would succeed.
var mmapDisabled = false

// MappedGraph is a Graph backed by (ideally) a read-only file mapping.
//
// When Mapped reports true the Graph's CSR arrays alias the mapping:
// the Graph, and every adjacency slice obtained from it, must not be
// used after Close. When the zero-copy path was not available (non-
// unix platform, big-endian host, mmap failure) the
// graph lives on the heap, Mapped reports false, and Close is a no-op
// that only invalidates the handle.
type MappedGraph struct {
	g    *graph.Graph
	data []byte // non-nil iff the arrays alias a live mapping
}

// Graph returns the loaded graph. See MappedGraph for lifetime rules.
func (m *MappedGraph) Graph() *graph.Graph { return m.g }

// Mapped reports whether the graph aliases a file mapping (true) or
// was read into the heap (false).
func (m *MappedGraph) Mapped() bool { return m.data != nil }

// Close releases the mapping. The Graph must not be used afterwards
// when Mapped was true. Close is idempotent.
func (m *MappedGraph) Close() error {
	data := m.data
	m.data = nil
	m.g = nil
	if data == nil {
		return nil
	}
	return munmap(data)
}

// MapGraph loads the binary graph file at path, mmap'ing GQC2 files
// and aliasing the CSR arrays directly into the mapping. Validation is
// the header, the exact file size, and the O(n) offsets invariants —
// deliberately not the O(|E|) row scan of the heap loader, so load
// cost stays independent of graph size; the adjacency bytes are
// trusted the way a cache file written by this process is. When the
// file cannot be mapped it is read into the heap instead
// (Mapped()==false); a malformed file is an error either way.
func MapGraph(path string) (*MappedGraph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()

	var hdr [gqc2HeaderSize]byte
	if n, err := f.ReadAt(hdr[:], 0); err != nil || n != len(hdr) {
		return nil, fmt.Errorf("store: %s: read header: short file", path)
	}
	var magic [4]byte
	copy(magic[:], hdr[:4])
	if magic != gqc2Magic {
		// Not CSR-verbatim: the graph codec's loader owns the verdict
		// (a retired version, or not a graph file at all).
		return heapFallback(path)
	}
	n := int64(binary.LittleEndian.Uint32(hdr[4:8]))
	m := binary.LittleEndian.Uint64(hdr[8:16])
	if 2*m > uint64(^uint32(0)) {
		return nil, fmt.Errorf("store: %s: edge count %d exceeds uint32 offsets", path, m)
	}
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	want := int64(gqc2HeaderSize) + 4*(n+1) + 4*2*int64(m)
	if st.Size() != want {
		return nil, fmt.Errorf("store: %s: size %d, GQC2 header implies %d (n=%d m=%d)",
			path, st.Size(), want, n, m)
	}

	if mmapDisabled || !hostLittleEndian {
		return heapFallback(path)
	}
	data, err := mmapFile(f, int(st.Size()))
	if err != nil {
		return heapFallback(path)
	}

	// Pointer fix-up: the payload is the two arrays back to back, both
	// 4-aligned within the page-aligned mapping.
	offsets := Uint32s(data[gqc2HeaderSize : gqc2HeaderSize+4*(n+1)])
	neighbors := Uint32s(data[gqc2HeaderSize+4*(n+1):])
	g, err := graph.FromCSR(offsets, neighbors, int(m))
	if err != nil {
		munmap(data)
		return nil, fmt.Errorf("store: %s: %w", path, err)
	}
	// Default the whole mapping to random access: adjacency walks jump
	// rows. Best-effort — the mapping works without it.
	_ = madviseRandom(data)
	return &MappedGraph{g: g, data: data}, nil
}

// heapFallback is the portable load path: the graph codec's buffered
// contiguous read, with full structural validation.
func heapFallback(path string) (*MappedGraph, error) {
	g, err := graph.ReadBinaryFile(path)
	if err != nil {
		return nil, err
	}
	return &MappedGraph{g: g}, nil
}
