package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
)

// Binary codec for graphs. The format ("GQC2") serializes the
// CSR arrays verbatim so a prebuilt graph loads with two contiguous
// array reads and zero per-vertex work:
//
//	magic     [4]byte   "GQC2"
//	n         uint32    number of vertices
//	m         uint64    number of undirected edges
//	offsets   [n+1]uint32
//	neighbors [2m]uint32  (packed sorted adjacency)
//
// Files of the retired "GQC1" layout (degree array + concatenated
// adjacency) are refused with an "unsupported version" error that says
// how to regenerate them, not mistaken for corruption.

var (
	magicV2 = [4]byte{'G', 'Q', 'C', '2'}
	magicV1 = [4]byte{'G', 'Q', 'C', '1'}
)

// ioBufSize sizes the bufio layers; chunkSize is the conversion
// buffer the uint32 array codec stages through.
const (
	ioBufSize = 1 << 20
	chunkSize = 1 << 16
)

// writeUint32s writes xs little-endian through buf (len multiple of 4).
func writeUint32s(w io.Writer, xs []uint32, buf []byte) error {
	for len(xs) > 0 {
		n := len(buf) / 4
		if n > len(xs) {
			n = len(xs)
		}
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint32(buf[4*i:], xs[i])
		}
		if _, err := w.Write(buf[:4*n]); err != nil {
			return err
		}
		xs = xs[n:]
	}
	return nil
}

// readUint32s fills dst from little-endian data through buf.
func readUint32s(r io.Reader, dst []uint32, buf []byte) error {
	for len(dst) > 0 {
		n := len(buf) / 4
		if n > len(dst) {
			n = len(dst)
		}
		if _, err := io.ReadFull(r, buf[:4*n]); err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			dst[i] = binary.LittleEndian.Uint32(buf[4*i:])
		}
		dst = dst[n:]
	}
	return nil
}

// WriteBinary serializes g to w in the current (CSR) format.
func WriteBinary(w io.Writer, g *Graph) error {
	bw := bufio.NewWriterSize(w, ioBufSize)
	if _, err := bw.Write(magicV2[:]); err != nil {
		return err
	}
	var hdr [12]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(g.NumVertices()))
	binary.LittleEndian.PutUint64(hdr[4:12], uint64(g.NumEdges()))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	buf := make([]byte, chunkSize)
	if err := writeUint32s(bw, g.offsets, buf); err != nil {
		return err
	}
	if err := writeUint32s(bw, g.neighbors, buf); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadBinary deserializes a graph written by WriteBinary. Loads get
// O(|E|) structural validation (monotone offsets, in-range IDs,
// strictly sorted rows) — enough to make a corrupt file an error
// instead of a panic without paying the per-edge symmetry search of
// full Validate, which would dominate the contiguous-read fast path
// on large graphs. Callers loading untrusted files that need the
// symmetry guarantee can run Validate themselves.
func ReadBinary(r io.Reader) (*Graph, error) {
	br := bufio.NewReaderSize(r, ioBufSize)
	var m4 [4]byte
	if _, err := io.ReadFull(br, m4[:]); err != nil {
		return nil, fmt.Errorf("graph: read magic: %w", err)
	}
	switch m4 {
	case magicV2:
	case magicV1:
		return nil, fmt.Errorf("graph: unsupported version %q: only GQC2 files are read; regenerate the file from its edge list (qcconvert, qcgen)", m4[:])
	default:
		return nil, fmt.Errorf("graph: bad magic %q", m4[:])
	}
	var hdr [12]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("graph: read header: %w", err)
	}
	n := int(binary.LittleEndian.Uint32(hdr[0:4]))
	m := binary.LittleEndian.Uint64(hdr[4:12])
	if 2*m > uint64(^uint32(0)) {
		return nil, fmt.Errorf("graph: edge count %d exceeds uint32 offsets", m)
	}
	g, err := readCSR(br, n, m)
	if err != nil {
		return nil, err
	}
	if err := g.validateStructure(); err != nil {
		return nil, err
	}
	return g, nil
}

// readCSR reads the payload: the two CSR arrays, verbatim.
func readCSR(br io.Reader, n int, m uint64) (*Graph, error) {
	buf := make([]byte, chunkSize)
	offsets := make([]uint32, n+1)
	if err := readUint32s(br, offsets, buf); err != nil {
		return nil, fmt.Errorf("graph: read offsets: %w", err)
	}
	if uint64(offsets[n]) != 2*m {
		return nil, fmt.Errorf("graph: offsets end %d != 2m = %d", offsets[n], 2*m)
	}
	neighbors := make([]V, 2*m)
	if err := readUint32s(br, neighbors, buf); err != nil {
		return nil, fmt.Errorf("graph: read adjacency: %w", err)
	}
	return &Graph{offsets: offsets, neighbors: neighbors, m: int(m)}, nil
}

// WriteBinaryFile writes g to path.
func WriteBinaryFile(path string, g *Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteBinary(f, g); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadBinaryFile reads a graph from path.
func ReadBinaryFile(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadBinary(f)
}
