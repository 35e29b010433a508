// Package bitset provides a dense bitset over small integer universes.
//
// The miner uses bitsets for membership marks over task-local vertex
// indices (0..n-1), where n is the size of a task subgraph. Operations
// are not safe for concurrent mutation; each task owns its bitsets.
//
// Beyond the pointer-based Set, the package exposes a flat Matrix (n
// rows of ⌈n/64⌉ words in one packed array) and word-slice kernels
// (AndCount, AndTo, AndCountTo, OrWith, ...) that operate on raw
// []uint64 rows. These are the dense-adjacency hot loops of the
// quasi-clique mining kernel: a degree-into-set query becomes one
// popcount-over-AND sweep of a matrix row against a membership row,
// with no per-row pointer chasing.
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
// than the vector setup.
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
// (the assembly uses unaligned loads); for in-place forms (AndWith,
// OrWith, AndCountTo with dst == a or dst == b) operands may alias
// exactly, but partial overlap is undefined.
//
// # Adding a kernel
//
// Add the scalar loop (xxxGeneric) next to the existing ones, the
// assembly routine to bitset_amd64.s, its //go:noescape declaration to
// dispatch_amd64.go, a stub to dispatch_noasm.go, and an exported
// wrapper here that clamps lengths and dispatches on simdOn. Then
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

// Set is a fixed-universe bitset. The zero value is an empty set over an
// empty universe; use New to size it.
type Set struct {
	words []uint64
	n     int // universe size
}

// New returns an empty set over the universe [0, n).
func New(n int) *Set {
	if n < 0 {
		panic("bitset: negative universe")
	}
	return &Set{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// Len returns the universe size.
func (s *Set) Len() int { return s.n }

// Add inserts i into the set.
func (s *Set) Add(i int) {
	s.words[i/wordBits] |= 1 << (uint(i) % wordBits)
}

// Remove deletes i from the set.
func (s *Set) Remove(i int) {
	s.words[i/wordBits] &^= 1 << (uint(i) % wordBits)
}

// Contains reports whether i is in the set.
func (s *Set) Contains(i int) bool {
	if i < 0 || i >= s.n {
		return false
	}
	return s.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

// Count returns the number of elements in the set.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Clear removes all elements, keeping the universe size.
func (s *Set) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// AddAll inserts every element of xs.
func (s *Set) AddAll(xs []int) {
	for _, x := range xs {
		s.Add(x)
	}
}

// Clone returns an independent copy of s.
func (s *Set) Clone() *Set {
	c := &Set{words: make([]uint64, len(s.words)), n: s.n}
	copy(c.words, s.words)
	return c
}

// IntersectWith replaces s with s ∩ t. The universes must match.
func (s *Set) IntersectWith(t *Set) {
	if s.n != t.n {
		panic("bitset: universe mismatch")
	}
	for i := range s.words {
		s.words[i] &= t.words[i]
	}
}

// UnionWith replaces s with s ∪ t. The universes must match.
func (s *Set) UnionWith(t *Set) {
	if s.n != t.n {
		panic("bitset: universe mismatch")
	}
	for i := range s.words {
		s.words[i] |= t.words[i]
	}
}

// DifferenceWith replaces s with s \ t. The universes must match.
func (s *Set) DifferenceWith(t *Set) {
	if s.n != t.n {
		panic("bitset: universe mismatch")
	}
	for i := range s.words {
		s.words[i] &^= t.words[i]
	}
}

// IntersectionCount returns |s ∩ t| without allocating.
func (s *Set) IntersectionCount(t *Set) int {
	if s.n != t.n {
		panic("bitset: universe mismatch")
	}
	c := 0
	for i := range s.words {
		c += bits.OnesCount64(s.words[i] & t.words[i])
	}
	return c
}

// Equal reports whether s and t contain the same elements over the same
// universe.
func (s *Set) Equal(t *Set) bool {
	if s.n != t.n {
		return false
	}
	for i := range s.words {
		if s.words[i] != t.words[i] {
			return false
		}
	}
	return true
}

// Elements appends the members of s in increasing order to dst and
// returns the extended slice.
func (s *Set) Elements(dst []int) []int {
	for wi, w := range s.words {
		base := wi * wordBits
		for w != 0 {
			b := bits.TrailingZeros64(w)
			dst = append(dst, base+b)
			w &= w - 1
		}
	}
	return dst
}

// ForEach calls fn for each member in increasing order. If fn returns
// false, iteration stops.
func (s *Set) ForEach(fn func(i int) bool) {
	for wi, w := range s.words {
		base := wi * wordBits
		for w != 0 {
			b := bits.TrailingZeros64(w)
			if !fn(base + b) {
				return
			}
			w &= w - 1
		}
	}
}

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

// Set sets bit j in row i.
func (m *Matrix) Set(i, j int) {
	m.words[i*m.stride+j/wordBits] |= 1 << (uint(j) % wordBits)
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

// FillBits clears dst and sets the bit of every member of xs.
func FillBits(dst []uint64, xs []uint32) {
	clear(dst)
	for _, x := range xs {
		dst[x/wordBits] |= 1 << (uint64(x) % wordBits)
	}
}

// CountWords returns the population count of the row.
func CountWords(w []uint64) int {
	if simdOn.Load() && len(w) >= minAsmWords {
		return countAsm(&w[0], len(w))
	}
	return countWordsGeneric(w)
}

// AndCount returns the population count of a ∩ b without writing
// anything — the miner's degree-into-set query. Only the first
// min(len(a), len(b)) words are read.
func AndCount(a, b []uint64) int {
	if len(b) < len(a) {
		a = a[:len(b)]
	}
	if simdOn.Load() && len(a) >= minAsmWords {
		return andCountAsm(&a[0], &b[0], len(a))
	}
	return andCountGeneric(a, b)
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
// the same pass — the fused form of AndTo + CountWords that the cover
// and bounding loops run per candidate. Only the first min(len) words
// are touched. dst may alias a or b exactly.
func AndCountTo(dst, a, b []uint64) int {
	n := min(len(dst), len(a), len(b))
	dst, a, b = dst[:n], a[:n], b[:n]
	if simdOn.Load() && n >= minAsmWords {
		return andCountToAsm(&dst[0], &a[0], &b[0], n)
	}
	return andCountToGeneric(dst, a, b)
}

// AndWith replaces dst with dst ∩ a over the first min(len) words.
func AndWith(dst, a []uint64) {
	AndTo(dst, dst, a)
}

// OrWith replaces dst with dst ∪ a over the first min(len) words.
func OrWith(dst, a []uint64) {
	if len(a) < len(dst) {
		dst = dst[:len(a)]
	}
	if simdOn.Load() && len(dst) >= minAsmWords {
		orWithAsm(&dst[0], &a[0], len(dst))
		return
	}
	orWithGeneric(dst, a)
}

// Scalar kernel bodies: the portable fallback (and the reference the
// assembly is fuzzed against). Callers have already clamped lengths.

func countWordsGeneric(w []uint64) int {
	c := 0
	for _, x := range w {
		c += bits.OnesCount64(x)
	}
	return c
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
