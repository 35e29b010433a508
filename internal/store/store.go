// Package store owns the miner's on-disk representations end to end:
// the zero-copy graph load path and the raw columnar task-spill
// format. Both exist for the same codesign reason (Guo et al., VLDB
// 2020, Section 5): the divide-and-conquer task flood only scales when
// the system layer keeps bulk data off reflective serializers and out
// of the allocator.
//
// # GQC2 — binary graph files (mmap.go)
//
// The graph codec (internal/graph, format "GQC2") writes the CSR
// arrays verbatim:
//
//	magic     [4]byte   "GQC2"
//	n         uint32    number of vertices
//	m         uint64    number of undirected edges
//	offsets   [n+1]uint32
//	neighbors [2m]uint32
//
// Because the payload *is* the in-memory layout, MapGraph can mmap the
// file and alias offsets/neighbors straight into the mapping; page
// faults bring in the adjacency. MapGraph is the only GQC2 reader.
// Every load checks the header, the exact file size, and — through
// graph.FromCSR — the offsets and one pass over every row (IDs in
// range, strictly sorted, no self loops, edge count), so load cost is
// O(|E|) sequential reads. When the platform or byte order rules out
// aliasing, or mmap fails, MapGraph reads the file into the heap and
// runs the same checks.
//
// Alias-lifetime rule: a mapped Graph's arrays live in the mapping,
// so the Graph (and every Adj slice handed out from it) is valid only
// until MappedGraph.Close munmaps the file. Close only after the last
// user of the Graph is done; heap reads have no such constraint
// (Close is then a no-op).
//
// GQC2 files larger than RAM are produced by ExternalGraphWriter
// (convert.go): edges accumulate in a budget-bounded buffer, overflow
// is spilled as sorted runs, and a k-way merge streams the deduped
// adjacency straight into the GQC2 layout — only the offsets array
// must fit in memory. ConvertEdgeList wraps it for text input (the
// cmd/qcconvert front end).
//
// Residency: MapGraph advises the whole mapping MADV_RANDOM (adjacency
// access during mining has no sequential pattern worth readahead). The
// hint is advisory and compiles to a no-op where madvise is absent.
// Worker processes on one host share the page cache of the one mapped
// file, so each maps the whole graph.
//
// # GQS1 — columnar task-spill batches (spill.go)
//
// Task batches spilled by the G-thinker engine are length-prefixed raw
// records — no reflection on the way out, no per-field allocation on
// the way back in:
//
//	magic   [4]byte  "GQS1"
//	count   uint32   number of task records
//	count × { recLen uint32; record [recLen]byte }
//
// Record bytes are produced by the app's task codec (flat little-
// endian arrays — for the quasi-clique miner a subtask's labels, bit
// rows, S and Ext written verbatim), so a refill
// is one sequential file read plus pointer fix-up: Uint32s
// reinterprets 4-aligned regions of the read buffer as []uint32
// in place, and decoded slices alias the batch buffer. The buffer is
// plain heap memory (not a mapping), so aliases keep it alive via the
// GC and need no explicit lifecycle; each record's regions belong to
// exactly one task, so in-place mutation by the task is safe.
//
// GQS1 batches are not only a disk format: the engine's TCP task
// channel ships stolen big-task batches machine-to-machine as the
// same bytes (one opTaskSteal frame per batch, see
// internal/gthinker/tcp.go), so spill files, wire transfers, and
// in-memory refills share one serialization and one set of decode
// bounds checks — a corrupt count read off a socket fails exactly
// like a corrupt count read off disk, before any allocation depends
// on it.
//
// # Wire payloads (walk.go)
//
// Every payload the system sends once per poll or once per job — the
// gthinker control plane's requests and replies (a job ends with one
// machine report carrying the Metrics, the OTR1 trace and the result
// frame), the miner's QJS8 job spec and QRS3 results, and the
// GQM3 manifest — is spelled as one walk function over a Walker: the
// fields in wire order, each through a typed method (fixed-width
// integers, float, flag mask, length-prefixed string and bytes,
// counted lists, []uint32, constants). Encode runs the walk to append
// the fields; Decode runs the same walk to read them back, refusing a
// magic or version mismatch, a count above its bound or above what the
// remaining bytes can hold (before anything is allocated), a short
// read, and trailing bytes. The per-task bulk codecs (GQS1 and the
// adjacency batches) stay hand-written: their decoders alias the read
// buffer on the hot path.
//
// All integers are little-endian. On big-endian hosts, or at
// misaligned offsets, the zero-copy casts degrade to copying loops
// with identical results.
package store

import (
	"encoding/binary"
	"fmt"
	"unsafe"
)

// hostLittleEndian reports whether the host's native byte order
// matches the on-disk (little-endian) order, which is what allows
// reinterpreting file bytes as []uint32 without a conversion pass.
var hostLittleEndian = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// zeroCopy gates the unsafe []byte→[]uint32 reinterpretation; tests
// clear it to exercise the portable copying fallback.
var zeroCopy = true

// AppendU32 appends v little-endian.
func AppendU32(dst []byte, v uint32) []byte {
	return append(dst, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

// AppendU64 appends v little-endian.
func AppendU64(dst []byte, v uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return append(dst, b[:]...)
}

// AppendU32s appends the raw values of xs little-endian (no count
// prefix). On little-endian hosts this is one bulk copy of the slice's
// underlying bytes.
func AppendU32s(dst []byte, xs []uint32) []byte {
	if len(xs) == 0 {
		return dst
	}
	if hostLittleEndian {
		return append(dst, unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(xs))), 4*len(xs))...)
	}
	for _, x := range xs {
		dst = AppendU32(dst, x)
	}
	return dst
}

// AppendU64s appends the raw values of xs little-endian (no count
// prefix), in one bulk copy on little-endian hosts, as AppendU32s does.
func AppendU64s(dst []byte, xs []uint64) []byte {
	if len(xs) == 0 {
		return dst
	}
	if hostLittleEndian {
		return append(dst, unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(xs))), 8*len(xs))...)
	}
	for _, x := range xs {
		dst = AppendU64(dst, x)
	}
	return dst
}

// Uint32s reinterprets data (len must be 4n) as n little-endian
// uint32s. When the host is little-endian and data is 4-aligned the
// result aliases data — the "pointer fix-up" fast path — otherwise the
// values are copied out. Callers must treat the result as aliasing
// data either way.
func Uint32s(data []byte) []uint32 {
	n := len(data) / 4
	if n == 0 {
		return nil
	}
	if zeroCopy && hostLittleEndian && uintptr(unsafe.Pointer(&data[0]))%4 == 0 {
		return unsafe.Slice((*uint32)(unsafe.Pointer(&data[0])), n)
	}
	out := make([]uint32, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(data[4*i:])
	}
	return out
}

// Uint64s is Uint32s for 64-bit words: data (len must be 8n) read as n
// little-endian uint64s, aliasing data when the host is little-endian
// and data is 8-aligned, copied out otherwise.
func Uint64s(data []byte) []uint64 {
	n := len(data) / 8
	if n == 0 {
		return nil
	}
	if zeroCopy && hostLittleEndian && uintptr(unsafe.Pointer(&data[0]))%8 == 0 {
		return unsafe.Slice((*uint64)(unsafe.Pointer(&data[0])), n)
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(data[8*i:])
	}
	return out
}

// Cursor walks a byte buffer of little-endian fields with a sticky
// error: after the first short read every subsequent call returns zero
// values, so decoders can read a whole structure and check Err once.
type Cursor struct {
	data []byte
	off  int
	err  error
}

// NewCursor returns a cursor over data.
func NewCursor(data []byte) *Cursor { return &Cursor{data: data} }

// Err returns the first decoding error, or nil.
func (c *Cursor) Err() error { return c.err }

// Remaining returns the number of unread bytes.
func (c *Cursor) Remaining() int { return len(c.data) - c.off }

func (c *Cursor) fail(n int) {
	if c.err == nil {
		c.err = fmt.Errorf("store: truncated input: need %d bytes at offset %d, have %d",
			n, c.off, len(c.data)-c.off)
	}
}

// Bytes consumes and returns the next n bytes (aliasing the buffer),
// or nil after setting the sticky error when fewer remain. Once the
// cursor has failed, every further read returns nil.
func (c *Cursor) Bytes(n int) []byte {
	if c.err != nil {
		return nil
	}
	if n < 0 || n > len(c.data)-c.off {
		c.fail(n)
		return nil
	}
	b := c.data[c.off : c.off+n : c.off+n]
	c.off += n
	return b
}

// U32 consumes one little-endian uint32.
func (c *Cursor) U32() uint32 {
	b := c.Bytes(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 consumes one little-endian uint64.
func (c *Cursor) U64() uint64 {
	b := c.Bytes(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// U32s consumes n uint32s. The bounds check happens before any
// allocation, so a corrupt count cannot trigger a huge make; the
// result may alias the buffer (see Uint32s).
func (c *Cursor) U32s(n int) []uint32 {
	b := c.Bytes(4 * n)
	if b == nil {
		return nil
	}
	return Uint32s(b)
}

// U64s consumes n uint64s, bounds-checked before any allocation like
// U32s; the result may alias the buffer (see Uint64s).
func (c *Cursor) U64s(n int) []uint64 {
	if n < 0 || n > (len(c.data)-c.off)/8 {
		c.fail(8 * n)
		return nil
	}
	b := c.Bytes(8 * n)
	if b == nil {
		return nil
	}
	return Uint64s(b)
}
