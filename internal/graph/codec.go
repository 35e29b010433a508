package graph

import (
	"bufio"
	"encoding/binary"
	"io"
	"os"
)

// Binary writer for graphs. The format ("GQC2") serializes the CSR
// arrays verbatim, so the file's payload is the in-memory layout:
//
//	magic     [4]byte   "GQC2"
//	n         uint32    number of vertices
//	m         uint64    number of undirected edges
//	offsets   [n+1]uint32
//	neighbors [2m]uint32  (packed sorted adjacency)
//
// This package only writes the format. Its one reader is
// internal/store's MapGraph, which maps the file (or reads it into the
// heap where it cannot), points the arrays at it through FromCSR, and
// refuses a malformed file, including one of the retired "GQC1"
// layout, with an error.

var magicV2 = [4]byte{'G', 'Q', 'C', '2'}

// ioBufSize sizes the bufio layers; chunkSize is the conversion
// buffer the uint32 array writer stages through.
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
