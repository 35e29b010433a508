// Package bitset provides dense bit rows over small integer universes:
// the task-local vertex indices (0..n-1) of a task subgraph, where n
// is the subgraph's size.
//
// A row is a raw []uint64 of ⌈n/64⌉ words. Matrix packs n such rows
// into one array (a task's dense adjacency), RowCache builds rows
// lazily (the miner's two-hop bitmaps), and the word-slice kernels
// (AndCount, AndTo, AndCountTo, OrWith, FillBits, ...) operate on
// rows. These are the dense-adjacency hot loops of the quasi-clique
// mining kernel: a degree-into-set query becomes one popcount-over-AND
// sweep of a matrix row against a membership row, with no per-row
// pointer chasing. Rows are not safe for concurrent mutation; each
// task owns its rows.
//
// # Kernels
//
// Every word-row kernel is one portable Go loop (math/bits.OnesCount64
// over ranged words, which the compiler lowers to POPCNT where the
// target has it). Mining rows are narrow — a task subgraph of at most
// 64 vertices is one word, and the widest mined task spans a few — so
// a node's cost is the miner's bookkeeping around the calls, not the
// words they sweep. FillBits, AndCount and OrWith therefore test for
// one-word rows first and handle them in a path the compiler inlines
// into the caller: one OnesCount64, or one word built in a register
// and stored once, with no call or clamp.
//
// # Length preconditions
//
// Kernels operate on the first min(len(...)) words of their operands
// and never read past the shorter row: each clamps its operands before
// its loop, which also lets the compiler drop the loop's bounds
// checks. Rows sliced from a Matrix all share one stride, so in the
// mining hot loops the clamp never bites. No alignment is required;
// for in-place forms (OrWith, and AndTo or AndCountTo with dst == a or
// dst == b) operands may alias exactly, but partial overlap is
// undefined.
//
// # Adding a kernel
//
// Add an exported function here that clamps its operands and runs its
// loop (if the miner calls it per node, give it the one-word path and
// put it in CI's inline check, as AndCount has). Then add it to the
// per-bit model tests (TestKernelParityAcrossDispatch and
// FuzzKernelParity), which check every kernel bit by bit over odd
// lengths, unaligned tails and mismatched operand lengths.
package bitset

import "math/bits"

const wordBits = 64

// WordsFor returns the number of 64-bit words needed to cover a
// universe of n bits.
func WordsFor(n int) int { return (n + wordBits - 1) / wordBits }

// Matrix is a flat n×n bit matrix: n rows of Stride() words each,
// packed into one backing array. Row i is the dense adjacency (or any
// per-vertex bit row) of vertex i. The zero Matrix is empty; Reset
// sizes it. Backing storage grows monotonically across Resets, so a
// pooled owner (one Matrix per mining worker) reaches a steady state
// with no per-task allocation.
type Matrix struct {
	words  []uint64
	n      int
	stride int
}

// Reset resizes the matrix to n×n and clears every row. Storage is
// reused (and grown monotonically) across calls.
func (m *Matrix) Reset(n int) {
	if n < 0 {
		panic("bitset: negative matrix size")
	}
	m.n = n
	m.stride = WordsFor(n)
	need := n * m.stride
	if cap(m.words) < need {
		m.words = make([]uint64, need)
		return
	}
	m.words = m.words[:need]
	clear(m.words)
}

// Load resizes the matrix to n×n and copies words in as its rows: n
// rows of WordsFor(n) words each, the layout Row slices. Storage is
// reused as by Reset; words is not retained.
func (m *Matrix) Load(n int, words []uint64) {
	m.n = n
	m.stride = WordsFor(n)
	need := n * m.stride
	if len(words) != need {
		panic("bitset: matrix rows of the wrong length")
	}
	if cap(m.words) < need {
		m.words = make([]uint64, need)
	}
	m.words = m.words[:need]
	copy(m.words, words)
}

// N returns the number of rows (= universe size).
func (m *Matrix) N() int { return m.n }

// Stride returns the number of words per row.
func (m *Matrix) Stride() int { return m.stride }

// Row returns row i as a word slice of length Stride(). The slice
// aliases the matrix storage and is invalidated by the next Reset.
func (m *Matrix) Row(i int) []uint64 {
	return m.words[i*m.stride : (i+1)*m.stride : (i+1)*m.stride]
}

// Words returns the matrix storage: row i is Words()[i*Stride() :
// (i+1)*Stride()], so with a stride of 1 row i is the word Words()[i]
// and a one-word caller can read rows without slicing them. The slice
// aliases the matrix storage and is invalidated by the next Reset or
// Load.
func (m *Matrix) Words() []uint64 { return m.words }

// RowCache is a Matrix variant for lazily built per-vertex rows (the
// miner's two-hop bitmaps): rows start unbuilt and carry an epoch
// stamp instead of being cleared, so Reset is O(n) stamp-compare-free
// bookkeeping rather than an O(n·stride) wipe, and only the rows a
// task actually consults get built. An unbuilt row's words are
// garbage from a previous epoch — callers must fully overwrite the
// row before MarkBuilt, never read-modify-write it.
type RowCache struct {
	words  []uint64
	stamp  []int64 // per-row epoch; row i is built iff stamp[i] == epoch
	epoch  int64
	n      int
	stride int
}

// Reset resizes the cache to n rows over an n-bit universe and marks
// every row unbuilt. No row storage is cleared.
func (c *RowCache) Reset(n int) {
	if n < 0 {
		panic("bitset: negative row cache size")
	}
	c.n = n
	c.stride = WordsFor(n)
	need := n * c.stride
	if cap(c.words) < need {
		c.words = make([]uint64, need)
	}
	c.words = c.words[:need]
	if cap(c.stamp) < n {
		c.stamp = make([]int64, n)
	}
	c.stamp = c.stamp[:n]
	c.epoch++
}

// N returns the number of rows (= universe size).
func (c *RowCache) N() int { return c.n }

// Stride returns the number of words per row.
func (c *RowCache) Stride() int { return c.stride }

// Row returns row i as a word slice of length Stride(). The slice
// aliases the cache storage and is invalidated by the next Reset. Its
// contents are meaningful only once Built(i) reports true.
func (c *RowCache) Row(i int) []uint64 {
	return c.words[i*c.stride : (i+1)*c.stride : (i+1)*c.stride]
}

// Built reports whether row i has been built this epoch.
func (c *RowCache) Built(i int) bool { return c.stamp[i] == c.epoch }

// MarkBuilt records that row i has been fully written this epoch.
func (c *RowCache) MarkBuilt(i int) { c.stamp[i] = c.epoch }

// Word-slice kernels — the branch-free inner loops of the dense mining
// kernel. Each exported kernel clamps its operands to the shortest row
// (see the package doc's length preconditions) and runs a Go loop.

// KernelVariant names the kernel implementation for the benchmark
// report's header. There is one, the portable Go loops, so it is
// always "scalar".
func KernelVariant() string { return "scalar" }

// SetBit sets bit i in row w.
func SetBit(w []uint64, i int) {
	w[i/wordBits] |= 1 << (uint(i) % wordBits)
}

// TestBit reports whether bit i is set in row w.
func TestBit(w []uint64, i int) bool {
	return w[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

// FillBits, AndCount and OrWith are "test for one word, else call the
// loop" and nothing more, to stay within the compiler's inline budget
// of 80 (see the package doc); AndTo and AndCountTo are a clamp and a
// loop, which fits too. CI fails if go build -gcflags=-m stops
// reporting "can inline" for any of the five, or for Matrix.Words,
// through which the miner reads one-word rows as plain words.

// FillBits clears dst and sets the bit of every member of xs. A member
// outside dst panics with an index out of range.
func FillBits(dst []uint64, xs []uint32) {
	if len(dst) == 1 {
		// hi ORs every member, so it reaches 64 iff some member does,
		// and then the store below is out of range.
		var w uint64
		var hi uint32
		for _, x := range xs {
			w |= 1 << (x % wordBits)
			hi |= x
		}
		dst[hi/wordBits] = w
		return
	}
	fillBitsLoop(dst, xs)
}

// AndCount returns the population count of a ∩ b without writing
// anything — the miner's degree-into-set query. Only the first
// min(len(a), len(b)) words are read.
func AndCount(a, b []uint64) int {
	if min(len(a), len(b)) == 1 {
		return bits.OnesCount64(a[0] & b[0])
	}
	return andCountLoop(a, b)
}

// AndTo stores a ∩ b into dst. Only the first min(len) words of the
// three rows are touched. dst may alias a or b exactly.
func AndTo(dst, a, b []uint64) {
	n := min(len(dst), len(a), len(b))
	dst, a, b = dst[:n], a[:n], b[:n]
	for i, x := range a {
		dst[i] = x & b[i]
	}
}

// AndCountTo stores a ∩ b into dst and returns its population count in
// the same pass — the fused AND-and-popcount that the cover and
// bounding loops run per candidate. Only the first min(len) words
// are touched. dst may alias a or b exactly.
func AndCountTo(dst, a, b []uint64) int {
	n := min(len(dst), len(a), len(b))
	dst, a, b = dst[:n], a[:n], b[:n]
	c := 0
	for i, x := range a {
		w := x & b[i]
		dst[i] = w
		c += bits.OnesCount64(w)
	}
	return c
}

// OrWith replaces dst with dst ∪ a over the first min(len) words.
func OrWith(dst, a []uint64) {
	if min(len(dst), len(a)) == 1 {
		dst[0] |= a[0]
		return
	}
	orWithLoop(dst, a)
}

// Loops behind the one-word paths above. Each clamps its operands to
// the shortest, which also drops the bounds checks inside the loop.

func fillBitsLoop(dst []uint64, xs []uint32) {
	clear(dst)
	for _, x := range xs {
		dst[x/wordBits] |= 1 << (uint64(x) % wordBits)
	}
}

func andCountLoop(a, b []uint64) int {
	n := min(len(a), len(b))
	a, b = a[:n], b[:n]
	c := 0
	for i, x := range a {
		c += bits.OnesCount64(x & b[i])
	}
	return c
}

func orWithLoop(dst, a []uint64) {
	n := min(len(dst), len(a))
	dst, a = dst[:n], a[:n]
	for i := range dst {
		dst[i] |= a[i]
	}
}

// AppendBits appends the set bit positions of w, in increasing order,
// to dst as uint32 indices and returns the extended slice.
func AppendBits(dst []uint32, w []uint64) []uint32 {
	for wi, x := range w {
		base := uint32(wi * wordBits)
		for x != 0 {
			dst = append(dst, base+uint32(bits.TrailingZeros64(x)))
			x &= x - 1
		}
	}
	return dst
}
