package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"

	"gthinkerqc/internal/graph"
)

// gqc2Magic is the CSR graph format written by graph.WriteBinary; its
// payload is the in-memory arrays verbatim. gqc1Magic is the retired
// degree-array layout, refused by name so a stale file is not mistaken
// for corruption.
var (
	gqc2Magic = [4]byte{'G', 'Q', 'C', '2'}
	gqc1Magic = [4]byte{'G', 'Q', 'C', '1'}
)

const gqc2HeaderSize = 16 // magic + n(uint32) + m(uint64)

// mmapDisabled forces the heap read; tests set it to exercise the
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

// MapGraph loads the GQC2 graph file at path; it is the only GQC2
// reader. The file is mmap'd and the Graph's CSR arrays alias the
// mapping; where that is unavailable (non-unix platform, big-endian
// host, mmap error) the file is read into the heap instead
// (Mapped()==false). Either way the same checks run: the header
// (magic, a retired GQC1 refused by name), the exact file size, and
// graph.FromCSR's offsets invariants and O(|E|) row scan. A malformed
// file is an error, never a graph a miner could index out of range.
func MapGraph(path string) (*MappedGraph, error) {
	data, mapped, err := readFile(path)
	if err != nil {
		return nil, err
	}
	g, err := decodeGQC2(data)
	if err != nil {
		if mapped {
			munmap(data)
		}
		return nil, fmt.Errorf("store: %s: %w", path, err)
	}
	if !mapped {
		return &MappedGraph{g: g}, nil
	}
	// Default the whole mapping to random access: adjacency walks jump
	// rows. Best-effort — the mapping works without it.
	_ = madviseRandom(data)
	return &MappedGraph{g: g, data: data}, nil
}

// readFile returns the bytes of path: a read-only mapping (mapped)
// when the host allows one, else the file read into the heap.
func readFile(path string) (data []byte, mapped bool, err error) {
	if !mmapDisabled && hostLittleEndian {
		f, err := os.Open(path)
		if err != nil {
			return nil, false, err
		}
		defer f.Close()
		st, err := f.Stat()
		if err != nil {
			return nil, false, err
		}
		if data, err := mmapFile(f, int(st.Size())); err == nil {
			return data, true, nil
		}
	}
	data, err = os.ReadFile(path)
	return data, false, err
}

// decodeGQC2 checks the header and size of a GQC2 image and points a
// Graph's arrays into it (the payload is two 4-aligned arrays back to
// back; Uint32s aliases them where the host allows).
func decodeGQC2(data []byte) (*graph.Graph, error) {
	if len(data) < gqc2HeaderSize {
		return nil, errors.New("read header: short file")
	}
	switch magic := [4]byte(data[:4]); magic {
	case gqc2Magic:
	case gqc1Magic:
		return nil, fmt.Errorf("unsupported version %q: only GQC2 files are read; regenerate the file from its edge list (qcconvert, qcgen)", magic[:])
	default:
		return nil, fmt.Errorf("bad magic %q", magic[:])
	}
	n := int64(binary.LittleEndian.Uint32(data[4:8]))
	m := binary.LittleEndian.Uint64(data[8:16])
	if m > uint64(^uint32(0))/2 {
		return nil, fmt.Errorf("edge count %d exceeds uint32 offsets", m)
	}
	want := int64(gqc2HeaderSize) + 4*(n+1) + 4*2*int64(m)
	if int64(len(data)) != want {
		return nil, fmt.Errorf("size %d, GQC2 header implies %d (n=%d m=%d)", len(data), want, n, m)
	}
	offsets := Uint32s(data[gqc2HeaderSize : gqc2HeaderSize+4*(n+1)])
	neighbors := Uint32s(data[gqc2HeaderSize+4*(n+1):])
	return graph.FromCSR(offsets, neighbors, int(m))
}
