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
// # Kernel dispatch
//
// The word-row kernels have two implementations: portable scalar Go
// loops (math/bits.OnesCount64 over ranged words) and AVX2 assembly
// (bitset_amd64.s — VPAND/VPOR plus the VPSHUFB nibble-lookup popcount
// of Muła et al., with a POPCNT scalar tail). The variant is selected
// once at package init by a hand-rolled CPUID probe (OSXSAVE + AVX +
// POPCNT, XCR0 XMM|YMM enabled, and the leaf-7 AVX2 bit) — no cgo, no
// external dependency — and every exported kernel dispatches through
// one predictable branch on an atomic flag. Rows shorter than
// minAsmWords stay on the scalar loops, whose per-call cost is lower
// than the vector setup. Before any of that, FillBits, AndCount and
// OrWith test for one-word rows — every task subgraph of at most 64
// vertices — and handle them in a path the compiler inlines into the
// caller: one OnesCount64, or one word built in a register and stored
// once, with no call, clamp or flag load.
//
// Three ways to force the portable path:
//
//   - build with the noasm tag (the assembly is not even assembled;
//     CI keeps this leg green so the portable kernels cannot rot);
//   - call SetSIMD(false) at runtime, once, for rebuild-free A/B runs
//     (qcmine -nosimd does, for its own process only: mining never
//     touches the switch);
//   - run on a non-amd64 or pre-AVX2 host, where detection fails.
//
// # Length preconditions
//
// Kernels operate on the first min(len(...)) words of their operands
// and never read past the shorter row — an explicit guard enforced in
// the Go wrappers BEFORE the assembly is entered, so a caller with
// mismatched row lengths cannot make the vector code read out of
// bounds. Rows sliced from a Matrix all share one stride, so in the
// mining hot loops the clamp never bites. No alignment is required
// (the assembly uses unaligned loads); for in-place forms (OrWith, and
// AndTo or AndCountTo with dst == a or dst == b) operands may alias
// exactly, but partial overlap is undefined.
//
// # Adding a kernel
//
// Add the scalar loop (xxxGeneric) next to the existing ones, the
// assembly routine to bitset_amd64.s, its //go:noescape declaration to
// dispatch_amd64.go, a stub to dispatch_noasm.go, and an exported
// wrapper here that clamps lengths and dispatches on simdOn (if the
// miner calls it per node, give it the one-word path and put it in
// CI's inline check, as AndCount has). Then
// extend the parity fuzz target (FuzzKernelParity) so the two
// implementations are compared bit-for-bit, including odd lengths and
// unaligned tails.
package bitset

import (
	"math/bits"
	"sync/atomic"
)

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

// N returns the number of rows (= universe size).
func (m *Matrix) N() int { return m.n }

// Stride returns the number of words per row.
func (m *Matrix) Stride() int { return m.stride }

// Row returns row i as a word slice of length Stride(). The slice
// aliases the matrix storage and is invalidated by the next Reset.
func (m *Matrix) Row(i int) []uint64 {
	return m.words[i*m.stride : (i+1)*m.stride : (i+1)*m.stride]
}

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
// (see the package doc's length preconditions) and then dispatches to
// either the AVX2 assembly or the portable scalar loop; the two
// implementations are verified bit-identical by the parity fuzz suite.

// simdOn gates the vector kernels at runtime. It is initialized by the
// per-arch dispatch file (CPUID probe on amd64, always false under
// noasm or on other architectures) and can be cleared with SetSIMD for
// A/B runs. Atomic so a -nosimd toggle racing a straggler worker from
// a previous run stays benign; the Load compiles to a plain MOV on
// amd64.
var simdOn atomic.Bool

func init() { simdOn.Store(simdAvailable) }

// minAsmWords is the row width below which the exported kernels keep
// the scalar loops: under ~8 words the vector routine's call and
// LUT-setup overhead exceeds the popcount work it saves, and the
// ≤64-vertex subgraphs that dominate task counts are 1-word rows.
const minAsmWords = 8

// SetSIMD enables or disables the vectorized kernels at runtime.
// Enabling is capped by what the build and the CPU support, so
// SetSIMD(true) on a scalar-only build is a no-op. The switch is
// process-global: flip it between runs (the -nosimd flag does), not
// while miners are in flight, or A/B timings will blur.
func SetSIMD(on bool) { simdOn.Store(on && simdAvailable) }

// SIMDAvailable reports whether this build and CPU have the vector
// kernels at all (amd64 with AVX2+POPCNT, built without noasm).
func SIMDAvailable() bool { return simdAvailable }

// SIMDEnabled reports whether the vector kernels are currently
// selected.
func SIMDEnabled() bool { return simdOn.Load() }

// KernelVariant names the kernel implementation currently selected —
// "avx2" or "scalar" — for surfacing in run metrics.
func KernelVariant() string {
	if simdOn.Load() {
		return "avx2"
	}
	return "scalar"
}

// SetBit sets bit i in row w.
func SetBit(w []uint64, i int) {
	w[i/wordBits] |= 1 << (uint(i) % wordBits)
}

// TestBit reports whether bit i is set in row w.
func TestBit(w []uint64, i int) bool {
	return w[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

// FillBits, AndCount and OrWith are "test for one word, else call the
// general body" and nothing more, to stay within the compiler's inline
// budget of 80 (see the package doc's kernel dispatch); CI fails if
// go build -gcflags=-m stops reporting "can inline" for the three.
// AndTo and AndCountTo take three rows, and the guard, the call and the
// one-word body cost about 90 together, so they stay single functions;
// the miner calls them far less often.

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
	fillBitsGeneric(dst, xs)
}

// AndCount returns the population count of a ∩ b without writing
// anything — the miner's degree-into-set query. Only the first
// min(len(a), len(b)) words are read.
func AndCount(a, b []uint64) int {
	if min(len(a), len(b)) == 1 {
		return bits.OnesCount64(a[0] & b[0])
	}
	return andCountDispatch(a, b)
}

// AndTo stores a ∩ b into dst. Only the first min(len) words of the
// three rows are touched. dst may alias a or b exactly.
func AndTo(dst, a, b []uint64) {
	n := min(len(dst), len(a), len(b))
	dst, a, b = dst[:n], a[:n], b[:n]
	if simdOn.Load() && n >= minAsmWords {
		andToAsm(&dst[0], &a[0], &b[0], n)
		return
	}
	andToGeneric(dst, a, b)
}

// AndCountTo stores a ∩ b into dst and returns its population count in
// the same pass — the fused AND-and-popcount that the cover and
// bounding loops run per candidate. Only the first min(len) words
// are touched. dst may alias a or b exactly.
func AndCountTo(dst, a, b []uint64) int {
	n := min(len(dst), len(a), len(b))
	dst, a, b = dst[:n], a[:n], b[:n]
	if simdOn.Load() && n >= minAsmWords {
		return andCountToAsm(&dst[0], &a[0], &b[0], n)
	}
	return andCountToGeneric(dst, a, b)
}

// OrWith replaces dst with dst ∪ a over the first min(len) words.
func OrWith(dst, a []uint64) {
	if min(len(dst), len(a)) == 1 {
		dst[0] |= a[0]
		return
	}
	orWithDispatch(dst, a)
}

// General bodies of the wrappers above: clamp every operand to the
// shortest (which also drops the scalar loop's bounds checks), then the
// assembly for rows of at least minAsmWords when it is on, else the
// scalar loop.

func andCountDispatch(a, b []uint64) int {
	n := min(len(a), len(b))
	a, b = a[:n], b[:n]
	if simdOn.Load() && n >= minAsmWords {
		return andCountAsm(&a[0], &b[0], n)
	}
	return andCountGeneric(a, b)
}

func orWithDispatch(dst, a []uint64) {
	n := min(len(dst), len(a))
	dst, a = dst[:n], a[:n]
	if simdOn.Load() && n >= minAsmWords {
		orWithAsm(&dst[0], &a[0], n)
		return
	}
	orWithGeneric(dst, a)
}

// Scalar kernel bodies: the portable fallback (and the reference the
// assembly is fuzzed against). Callers have already clamped lengths.

func fillBitsGeneric(dst []uint64, xs []uint32) {
	clear(dst)
	for _, x := range xs {
		dst[x/wordBits] |= 1 << (uint64(x) % wordBits)
	}
}

func andCountGeneric(a, b []uint64) int {
	c := 0
	for i, x := range a {
		c += bits.OnesCount64(x & b[i])
	}
	return c
}

func andToGeneric(dst, a, b []uint64) {
	for i, x := range a {
		dst[i] = x & b[i]
	}
}

func andCountToGeneric(dst, a, b []uint64) int {
	c := 0
	for i, x := range a {
		w := x & b[i]
		dst[i] = w
		c += bits.OnesCount64(w)
	}
	return c
}

func orWithGeneric(dst, a []uint64) {
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
