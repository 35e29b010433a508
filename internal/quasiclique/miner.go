package quasiclique

import (
	"math/bits"
	"slices"
	"sort"

	"gthinkerqc/internal/bitset"
	"gthinkerqc/internal/vset"
)

// matrixCap is the largest task subgraph the miner builds a matrix for:
// at 1 024 vertices the matrix and the two-hop cache take 128 KiB each
// per miner. RecursiveMine splits a bigger Sub (see split). A variable
// only so the package's tests can lower it.
var matrixCap = 1024

// Miner runs the paper's recursive mining algorithm (Algorithm 2) over
// one task-local subgraph. It is the workhorse shared by the serial
// driver (MineGraph) and the parallel G-thinker app: the parallel
// time-delayed variant (Algorithm 10) is RecursiveMine with TimedOut
// and Offload set.
//
// A Miner is single-goroutine and designed for per-worker pooling:
// construct one with NewPooledMiner, then Reset it onto each task's
// subgraph. All internal state — the adjacency matrix, the two-hop
// cache, the membership rows, and the per-depth recursion arena —
// grows monotonically and is reused across tasks, so steady-state
// mining allocates nothing per expanded tree node. NewMiner remains as
// the one-shot convenience constructor (NewPooledMiner + Reset).
//
// Every rule runs on the bound Sub's bitset adjacency matrix (see the
// package doc's "One representation").
type Miner struct {
	Sub *Sub
	Par Params
	Opt Options

	// Emit receives every candidate quasi-clique as local indices of
	// m.Sub (unsorted). The slice is only valid during the call. A split
	// rebinds m.Sub to each child it mines, so translate through m.Sub,
	// not through a Sub captured when the task started.
	Emit func(locals []uint32)

	// TimedOut, when non-nil and returning true, switches the miner
	// into decomposition mode: instead of recursing into a child
	// ⟨S′, ext(S′)⟩ it calls Offload(S′, ext′) (Algorithm 10 lines
	// 18–24). S′ and ext′ are local indices of m.Sub. Offload must copy
	// its arguments if it retains them.
	TimedOut func() bool
	Offload  func(S, ext []uint32)

	// Abort, when non-nil and returning true, makes RecursiveMine
	// unwind as fast as possible (results found so far stay emitted).
	// It is polled once per expanded tree node; use it for
	// context-style cancellation of long mining runs.
	Abort func() bool

	// Counters, zeroed by Reset; they accumulate across the children a
	// split mines.
	Nodes        int64 // set-enumeration tree nodes expanded
	EmitCount    int64 // candidates emitted
	OffloadCount int64 // subtrees wrapped into subtasks

	// mat is the bound Sub's adjacency matrix (row v = Γ(v) as bits).
	// twoHop lazily caches each vertex's two-hop row — Γ(v) ∪
	// ⋃_{u∈Γ(v)} Γ(u) — which depends only on the Sub, so a row built
	// once serves filterTwoHopInto at every depth of the tree. Both
	// belong to m.Sub only while it is within matrixCap.
	mat    bitset.Matrix
	twoHop bitset.RowCache

	// Stride-sized membership rows: S, ext(S), and two transient rows
	// (sets under test, the cover set).
	sBits  []uint64
	eBits  []uint64
	tBits  []uint64
	t2Bits []uint64

	dS      []int32 // degree toward S, per local vertex
	dE      []int32 // degree toward ext(S), per local vertex
	unionBf []uint32
	byDeg   []uint32 // prefixByDegree ordering buffer
	prefix  []int    // prefixByDegree sums buffer

	// Recursion arena: frames[d] holds the reusable S′/ext′ buffers
	// for children produced at depth d, sized by Reset so the slice
	// never grows (and frame pointers never move) mid-recursion.
	frames []frame

	// applyCover / critical-vertex scratch, live only within one call.
	coverBuf []uint32
	critBuf  []uint32
	mergeBuf []uint32

	// sc materialises a split's children, which are copied out of it.
	sc Scratch
}

// frame is one recursion level's child buffers.
type frame struct {
	S   []uint32
	ext []uint32
}

// NewMiner returns a Miner bound to sub with the given parameters.
func NewMiner(sub *Sub, par Params, opt Options) *Miner {
	m := NewPooledMiner(par, opt)
	m.Reset(sub)
	return m
}

// NewPooledMiner returns an unbound Miner for per-worker reuse. Bind a
// task with Reset before mining. Emit/TimedOut/Offload/Abort survive
// Reset, so pooled callers can install them once.
func NewPooledMiner(par Params, opt Options) *Miner {
	return &Miner{Par: par, Opt: opt}
}

// Reset binds the miner to sub and zeroes the per-task counters. Every
// internal buffer is retained and grown monotonically, so a pooled
// miner reaches a steady state with no per-task allocation. For a Sub
// of at most 1 024 vertices Reset builds its adjacency matrix in
// miner-owned storage; a bigger Sub gets none, and RecursiveMine splits
// it.
func (m *Miner) Reset(sub *Sub) {
	m.bind(sub)
	m.Nodes, m.EmitCount, m.OffloadCount = 0, 0, 0
}

// bind is Reset without touching the counters.
func (m *Miner) bind(sub *Sub) {
	m.Sub = sub
	n := sub.N()
	if n > matrixCap {
		return
	}
	if len(m.dS) < n {
		m.dS = make([]int32, n)
		m.dE = make([]int32, n)
	}
	// Each recursion level grows S by ≥ 1 vertex, so depth < n and
	// frames never needs to grow (which would move frame pointers)
	// mid-recursion.
	if len(m.frames) < n+1 {
		frames := make([]frame, n+1)
		copy(frames, m.frames)
		m.frames = frames
	}
	m.mat.Reset(n)
	for i, row := range sub.Adj {
		r := m.mat.Row(i)
		for _, u := range row {
			bitset.SetBit(r, int(u))
		}
	}
	m.twoHop.Reset(n)
	stride := m.mat.Stride()
	if cap(m.sBits) < stride {
		m.sBits = make([]uint64, stride)
		m.eBits = make([]uint64, stride)
		m.tBits = make([]uint64, stride)
		m.t2Bits = make([]uint64, stride)
	}
	m.sBits = m.sBits[:stride]
	m.eBits = m.eBits[:stride]
	m.tBits = m.tBits[:stride]
	m.t2Bits = m.t2Bits[:stride]
}

// checkEmit emits S if it is a valid quasi-clique of size ≥ τsize and
// reports whether it did.
func (m *Miner) checkEmit(S []uint32) bool {
	if len(S) < m.Par.MinSize || !m.isQC(S) {
		return false
	}
	m.EmitCount++
	m.Emit(S)
	return true
}

// isQC reports whether the set S (local indices) induces a
// γ-quasi-clique. For γ ≥ 0.5 the degree condition implies
// connectivity (any two non-adjacent members must share a neighbor),
// so no reachability check is needed.
func (m *Miner) isQC(S []uint32) bool {
	need := CeilMul(m.Par.Gamma, len(S)-1)
	bitset.FillBits(m.tBits, S)
	for _, v := range S {
		if bitset.AndCount(m.mat.Row(int(v)), m.tBits) < need {
			return false
		}
	}
	return true
}

// isUnionQC reports whether S ∪ rem induces a γ-quasi-clique (the
// lookahead test of Algorithm 2 lines 8–10).
func (m *Miner) isUnionQC(S, rem []uint32) bool {
	need := CeilMul(m.Par.Gamma, len(S)+len(rem)-1)
	bitset.FillBits(m.tBits, S)
	for _, v := range rem {
		bitset.SetBit(m.tBits, int(v))
	}
	for _, v := range S {
		if bitset.AndCount(m.mat.Row(int(v)), m.tBits) < need {
			return false
		}
	}
	for _, v := range rem {
		if bitset.AndCount(m.mat.Row(int(v)), m.tBits) < need {
			return false
		}
	}
	return true
}

func (m *Miner) emitUnion(S, rem []uint32) {
	m.unionBf = m.unionBf[:0]
	m.unionBf = append(m.unionBf, S...)
	m.unionBf = append(m.unionBf, rem...)
	m.EmitCount++
	m.Emit(m.unionBf)
}

// emitInduced emits all of sub when it induces a γ-quasi-clique of at
// least τsize vertices: the emission check of a set that is a whole
// Sub, read off the Sub's own degrees, so it needs no matrix. It points
// m.Sub at sub for Emit.
func (m *Miner) emitInduced(sub *Sub) bool {
	n := sub.N()
	if n < m.Par.MinSize {
		return false
	}
	need := CeilMul(m.Par.Gamma, n-1)
	for _, row := range sub.Adj {
		if len(row) < need {
			return false
		}
	}
	m.unionBf = m.unionBf[:0]
	for v := 0; v < n; v++ {
		m.unionBf = append(m.unionBf, uint32(v))
	}
	m.Sub = sub
	m.EmitCount++
	m.Emit(m.unionBf)
	return true
}

// filterTwoHopInto appends to dst the members of cand within two hops
// of v in the task subgraph (diameter pruning P1 applied to ext(S′),
// Algorithm 2 line 12) and returns the extended slice. cand keeps its
// order (it carries applyCover's reordering), so membership is tested
// per element rather than extracted from the row — extraction would
// resort it and change the enumeration order.
func (m *Miner) filterTwoHopInto(v uint32, cand, dst []uint32) []uint32 {
	tb := m.twoHopRow(int(v))
	for _, u := range cand {
		if bitset.TestBit(tb, int(u)) {
			dst = append(dst, u)
		}
	}
	return dst
}

// twoHopRow returns v's two-hop row, building it into the cache on
// first use.
func (m *Miner) twoHopRow(v int) []uint64 {
	r := m.twoHop.Row(v)
	if m.twoHop.Built(v) {
		return r
	}
	row := m.mat.Row(v)
	copy(r, row)
	for wi, x := range row {
		base := wi * 64
		for x != 0 {
			bitset.OrWith(r, m.mat.Row(base+bits.TrailingZeros64(x)))
			x &= x - 1
		}
	}
	m.twoHop.MarkBuilt(v)
	return r
}

// boundsResult carries the outcome of one upper/lower bound
// computation inside iterativeBounding.
type boundsResult struct {
	prune     bool // prune S's extensions
	pruneSelf bool // S itself is provably invalid too (no emission check)
	value     int
	have      bool
}

// iterativeBounding is Algorithm 1: it applies the Type II rules
// (Theorems 4, 6, 8), critical-vertex expansion (Theorem 9), and the
// iterative Type I rules (Theorems 3, 5, 7) until a fixpoint.
//
// It returns pruned = true iff extending S (beyond S itself) is
// pruned; when extensions are pruned but S survives the Type II
// checks, G(S) is emission-checked internally. The returned S may have
// grown (critical-vertex moves, in place when capacity allows) and the
// returned ext is the shrunk candidate set; iterativeBounding takes
// ownership of both input slices and mutates them in place. pruned ==
// false implies the returned ext is non-empty.
func (m *Miner) iterativeBounding(S, ext []uint32) (pruned bool, outS, outExt []uint32) {
	gamma := m.Par.Gamma
	for {
		if len(ext) == 0 {
			m.checkEmit(S)
			return true, S, ext
		}
		sumS := m.stageDegrees(S, ext)
		ub := m.computeUpper(S, ext, sumS)
		if ub.prune {
			if !ub.pruneSelf {
				m.checkEmit(S)
			}
			return true, S, ext
		}
		lb := m.computeLower(S, ext, sumS)
		if lb.prune {
			return true, S, ext // lower-bound failures invalidate S too
		}
		if ub.have && lb.have && ub.value < lb.value {
			// S needs ≥ L_S ≥ 1 more vertices but can take at most
			// U_S < L_S, so neither S nor any extension is valid.
			return true, S, ext
		}

		// Critical-vertex pruning (P6, Theorem 9): needs L_S.
		if lb.have && !m.Opt.DisableCriticalVertex {
			crit := CeilMul(gamma, len(S)+lb.value-1)
			moved := false
			for _, v := range S {
				if int(m.dS[v]+m.dE[v]) != crit {
					continue
				}
				// I = Γ(v) ∩ ext(S); all of I must join S.
				bitset.AndTo(m.tBits, m.mat.Row(int(v)), m.eBits)
				I := bitset.AppendBits(m.critBuf[:0], m.tBits)
				m.critBuf = I
				if len(I) == 0 {
					continue
				}
				// The paper (T5): examine G(S) before expanding, or
				// the result is missed if the expansion fails. Quick
				// omits this check.
				if !m.Opt.QuickCompat {
					m.checkEmit(S)
				}
				m.mergeBuf = vset.Union(m.mergeBuf[:0], S, I)
				S = append(S[:0], m.mergeBuf...)
				ext = m.removeMarked(ext, I)
				moved = true
				break
			}
			if moved {
				if len(ext) == 0 {
					m.checkEmit(S)
					return true, S, ext
				}
				continue // recompute degrees and bounds from scratch
			}
		}

		// Type II pruning (Theorems 4, 6, 8).
		extOnlyPruned := false
		for _, v := range S {
			a, b := int(m.dS[v]), int(m.dE[v])
			if !m.Opt.DisableDegreePruning && a+b < CeilMul(gamma, len(S)-1+b) {
				return true, S, ext // Thm 4(ii): S and extensions pruned
			}
			if ub.have && a+ub.value < CeilMul(gamma, len(S)+ub.value-1) {
				return true, S, ext // Thm 6: includes S′ = S
			}
			if lb.have && a+b < CeilMul(gamma, len(S)+lb.value-1) {
				return true, S, ext // Thm 8: includes S′ = S
			}
			if !m.Opt.DisableDegreePruning && b == 0 && a < CeilMul(gamma, len(S)) {
				extOnlyPruned = true // Thm 4(i): spares S itself
			}
		}
		if extOnlyPruned {
			m.checkEmit(S)
			return true, S, ext
		}

		// Type I pruning (Theorems 3, 5, 7). EE degrees computed here,
		// only when Type II did not already settle the node.
		for _, u := range ext {
			m.dE[u] = int32(bitset.AndCount(m.mat.Row(int(u)), m.eBits))
		}
		kept := ext[:0]
		removed := false
		for _, u := range ext {
			a, b := int(m.dS[u]), int(m.dE[u])
			drop := false
			if !m.Opt.DisableDegreePruning && a+b < CeilMul(gamma, len(S)+b) {
				drop = true // Thm 3
			}
			if !drop && ub.have && a+ub.value-1 < CeilMul(gamma, len(S)+ub.value-1) {
				drop = true // Thm 5
			}
			if !drop && lb.have && a+b < CeilMul(gamma, len(S)+lb.value-1) {
				drop = true // Thm 7
			}
			if drop {
				removed = true
			} else {
				kept = append(kept, u)
			}
		}
		ext = kept
		if len(ext) == 0 {
			m.checkEmit(S)
			return true, S, ext
		}
		if !removed {
			return false, S, ext
		}
	}
}

// stageDegrees loads the membership rows of S and ext and the degrees
// the bounds read — dS and dE of S members, dS of ext members; EE
// degrees are delayed until Type I, per the paper's T2 — and returns
// Σ_{v∈S} dS(v).
func (m *Miner) stageDegrees(S, ext []uint32) int {
	bitset.FillBits(m.sBits, S)
	bitset.FillBits(m.eBits, ext)
	sumS := 0
	for _, v := range S {
		row := m.mat.Row(int(v))
		ds := bitset.AndCount(row, m.sBits)
		m.dS[v], m.dE[v] = int32(ds), int32(bitset.AndCount(row, m.eBits))
		sumS += ds
	}
	for _, u := range ext {
		m.dS[u] = int32(bitset.AndCount(m.mat.Row(int(u)), m.sBits))
	}
	return sumS
}

// computeUpper derives U_S (P4, Eqs 1–4). Requires dS/dE of S members
// and dS of ext members to be current.
func (m *Miner) computeUpper(S, ext []uint32, sumS int) boundsResult {
	if m.Opt.DisableUpperBound {
		return boundsResult{}
	}
	gamma := m.Par.Gamma
	dmin := int(m.dS[S[0]] + m.dE[S[0]])
	for _, v := range S[1:] {
		if d := int(m.dS[v] + m.dE[v]); d < dmin {
			dmin = d
		}
	}
	umin := FloorDiv(dmin, gamma) + 1 - len(S) // Eq (3)
	if umin < 1 {
		// No extension size is feasible; G(S) itself remains a
		// candidate (the paper's note below Eq (4)).
		return boundsResult{prune: true}
	}
	if umin > len(ext) {
		umin = len(ext)
	}
	prefix := m.prefixByDegree(ext)
	for t := umin; t >= 1; t-- { // Eq (4): max feasible t
		if sumS+prefix[t] >= len(S)*CeilMul(gamma, len(S)+t-1) {
			return boundsResult{value: t, have: true}
		}
	}
	return boundsResult{prune: true}
}

// computeLower derives L_S (P5, Eqs 6–8).
func (m *Miner) computeLower(S, ext []uint32, sumS int) boundsResult {
	if m.Opt.DisableLowerBound {
		return boundsResult{}
	}
	gamma := m.Par.Gamma
	dminS := int(m.dS[S[0]])
	for _, v := range S[1:] {
		if d := int(m.dS[v]); d < dminS {
			dminS = d
		}
	}
	lmin := -1
	for t := 0; t <= len(ext); t++ { // Eq (7)
		if dminS+t >= CeilMul(gamma, len(S)+t-1) {
			lmin = t
			break
		}
	}
	if lmin < 0 {
		return boundsResult{prune: true, pruneSelf: true}
	}
	prefix := m.prefixByDegree(ext)
	for t := lmin; t <= len(ext); t++ { // Eq (8): min feasible t
		if sumS+prefix[t] >= len(S)*CeilMul(gamma, len(S)+t-1) {
			return boundsResult{value: t, have: true}
		}
	}
	return boundsResult{prune: true, pruneSelf: true}
}

// prefixByDegree returns prefix[t] = Σ_{i≤t} dS(u_i) with ext sorted by
// dS non-increasing (Figures 6 and 7). The returned slice aliases the
// miner's scratch buffer and is valid until the next call.
func (m *Miner) prefixByDegree(ext []uint32) []int {
	m.byDeg = append(m.byDeg[:0], ext...)
	slices.SortFunc(m.byDeg, func(a, b uint32) int { return int(m.dS[b] - m.dS[a]) })
	if cap(m.prefix) < len(ext)+1 {
		m.prefix = make([]int, len(ext)+1)
	}
	prefix := m.prefix[:len(ext)+1]
	prefix[0] = 0
	for i, u := range m.byDeg {
		prefix[i+1] = prefix[i] + int(m.dS[u])
	}
	return prefix
}

// RecursiveMine is Algorithm 2 (and, with TimedOut/Offload set,
// Algorithm 10). S must be sorted; ext is an ordered candidate list,
// which the miner may reorder and shrink in place. It returns true iff
// some valid quasi-clique strictly extending S was found (or offloaded
// children made that undecidable and a candidate was emitted
// conservatively).
//
// All per-node state lives in the miner's depth-indexed recursion
// arena: the only copies made are at the Offload boundary, whose
// contract already requires the callee to copy — and at a split, which
// materialises each child of a Sub above 1 024 vertices.
func (m *Miner) RecursiveMine(S, ext []uint32) bool {
	if sub := m.Sub; sub.N() > matrixCap {
		defer func() { m.Sub = sub }()
		return m.split(sub, S, ext)
	}
	return m.mine(S, ext, 0)
}

func (m *Miner) mine(S, ext []uint32, depth int) bool {
	found := false
	coverLen := 0
	if !m.Opt.DisableCoverVertex {
		ext, coverLen = m.applyCover(S, ext)
	}
	fr := &m.frames[depth]
	limit := len(ext) - coverLen
	for i := 0; i < limit; i++ {
		if m.Abort != nil && m.Abort() {
			return found
		}
		rem := ext[i:]
		// Size-threshold cut (Algorithm 2 line 6).
		if len(S)+len(rem) < m.Par.MinSize {
			return found
		}
		// Lookahead (lines 8–10): if S ∪ ext is itself a
		// quasi-clique it is the unique maximal result below this
		// node.
		if !m.Opt.DisableLookahead && m.isUnionQC(S, rem) {
			m.emitUnion(S, rem)
			return true
		}
		v := ext[i]
		m.Nodes++
		fr.S = insertSortedInto(fr.S[:0], S, v)
		fr.ext = m.filterTwoHopInto(v, ext[i+1:], fr.ext[:0])
		if len(fr.ext) == 0 {
			// Quick misses this check (the paper, T6).
			if !m.Opt.QuickCompat && m.checkEmit(fr.S) {
				found = true
			}
			continue
		}
		if m.descend(fr, depth+1) {
			found = true
		}
	}
	return found
}

// descend finishes the loop body of Algorithm 2 for the child
// ⟨fr.S, fr.ext⟩ whose ext is diameter-filtered and non-empty:
// bounding, the size cut, then off-load or recursion at depth, and the
// emission check of G(S′) when nothing below it was found. It reports
// whether something was found.
func (m *Miner) descend(fr *frame, depth int) bool {
	pruned, S2, ext2 := m.iterativeBounding(fr.S, fr.ext)
	fr.S, fr.ext = S2, ext2 // keep any grown capacity for reuse
	if pruned || len(S2)+len(ext2) < m.Par.MinSize {
		return false
	}
	if m.TimedOut != nil && m.Offload != nil && m.TimedOut() {
		// Time-delayed decomposition (Algorithm 10 lines 18–24): wrap
		// the subtree as an independent task. The outcome of the
		// subtask is unknown here, so G(S′) must be emission-checked
		// now; a later subtask result may supersede it and the
		// post-filter removes it then.
		m.OffloadCount++
		m.Offload(S2, ext2)
		m.checkEmit(S2)
		return false
	}
	return m.mine(S2, ext2, depth) || m.checkEmit(S2)
}

// split mines ⟨S, ext⟩ of parent, a Sub above matrixCap and so without
// a matrix. It enumerates children as mine does, with the rules a Sub's
// adjacency answers without a matrix: the look-ahead of the first
// candidate, the diameter filter (through one n-bit two-hop row built
// from parent.Adj) and, on each materialised child, the degree rule of
// Theorem 3 (mineChild). The cover vertex, the look-ahead past the
// first candidate and the rest of bounding wait for a child's matrix.
// A child that finds nothing has G(S′) emission-checked, the
// conservative emission mine makes, so results stay exact.
func (m *Miner) split(parent *Sub, S, ext []uint32) bool {
	// A task's S ∪ ext is its whole Sub, and there the look-ahead of
	// the first candidate is read off the Sub's degrees.
	if !m.Opt.DisableLookahead && len(S)+len(ext) == parent.N() && m.emitInduced(parent) {
		return true
	}
	hop := make([]uint64, bitset.WordsFor(parent.N()))
	var S2, ext2 []uint32
	found := false
	for i, v := range ext {
		if m.Abort != nil && m.Abort() {
			break
		}
		if len(S)+len(ext)-i < m.Par.MinSize {
			break
		}
		m.Nodes++
		S2 = insertSortedInto(S2[:0], S, v)
		clear(hop)
		for _, u := range parent.Adj[v] {
			bitset.SetBit(hop, int(u))
			for _, w := range parent.Adj[u] {
				bitset.SetBit(hop, int(w))
			}
		}
		ext2 = ext2[:0]
		for _, u := range ext[i+1:] {
			if bitset.TestBit(hop, int(u)) {
				ext2 = append(ext2, u)
			}
		}
		if len(ext2) == 0 && m.Opt.QuickCompat {
			continue // Quick misses G(S′)'s check here (the paper, T6)
		}
		if m.mineChild(parent, S2, ext2) {
			found = true
		}
	}
	return found
}

// mineChild mines the split child ⟨S, ext⟩ of parent as a task of its
// own: materialised and cut by Theorem 3 until it fits the cap, then
// bound to this miner and continued as in mine (descend). A child the
// cut cannot bring under the cap is split again, and G(S) emission-
// checked if that finds nothing.
func (m *Miner) mineChild(parent *Sub, S, ext []uint32) bool {
	sub, S, ext := MakeSubtaskScratch(parent, S, ext, &m.sc)
	for len(ext) > 0 && sub.N() > matrixCap {
		kept := m.degreeCut(sub, S, ext)
		if len(kept) == len(ext) {
			return m.split(sub, S, ext) || m.mineChild(sub, S, nil)
		}
		sub, S, ext = MakeSubtaskScratch(sub, S, kept, &m.sc)
	}
	if len(ext) == 0 {
		return m.emitInduced(sub) // sub is G(S)
	}
	m.bind(sub)
	return m.descend(&frame{S: S, ext: ext}, 0)
}

// degreeCut returns the members of ext that survive Theorem 3 (P3) on a
// Sub that is exactly S ∪ ext: there a vertex's degree toward ext is its
// degree less its degree toward S, so the rule needs no matrix.
func (m *Miner) degreeCut(sub *Sub, S, ext []uint32) []uint32 {
	if m.Opt.DisableDegreePruning {
		return ext
	}
	dS := make([]int32, sub.N())
	for _, v := range S {
		for _, u := range sub.Adj[v] {
			dS[u]++
		}
	}
	var kept []uint32
	for _, u := range ext {
		a := int(dS[u])
		b := len(sub.Adj[u]) - a
		if a+b >= CeilMul(m.Par.Gamma, len(S)+b) {
			kept = append(kept, u)
		}
	}
	return kept
}

// applyCover implements cover-vertex pruning (P7): it finds the cover
// vertex u ∈ ext maximizing |C_S(u)| (Eq 9), moves C_S(u) to the tail
// of ext in place, and returns the reordered list plus the tail
// length.
func (m *Miner) applyCover(S, ext []uint32) ([]uint32, int) {
	if len(ext) == 0 {
		return ext, 0
	}
	thresh := CeilMul(m.Par.Gamma, len(S))
	bestLen := 0
	bitset.FillBits(m.sBits, S)
	bitset.FillBits(m.eBits, ext)
	for _, v := range S {
		m.dS[v] = int32(bitset.AndCount(m.mat.Row(int(v)), m.sBits))
	}
	for _, u := range ext {
		row := m.mat.Row(int(u))
		// Applicability: dS(u) ≥ ⌈γ|S|⌉.
		if bitset.AndCount(row, m.sBits) < thresh {
			continue
		}
		// Γ_ext(u); skip early if it cannot beat the current best
		// (the paper's note under Algorithm 2 line 2).
		cnt := bitset.AndCountTo(m.tBits, row, m.eBits)
		if cnt <= bestLen {
			continue
		}
		ok := true
		for _, v := range S {
			if bitset.TestBit(row, int(v)) {
				continue // v adjacent to u
			}
			// Applicability: non-neighbors v need dS(v) ≥ ⌈γ|S|⌉.
			if int(m.dS[v]) < thresh {
				ok = false
				break
			}
			cnt = bitset.AndCountTo(m.tBits, m.tBits, m.mat.Row(int(v)))
			if cnt <= bestLen {
				ok = false
				break
			}
		}
		if ok && cnt > bestLen {
			bestLen = cnt
			copy(m.t2Bits, m.tBits)
		}
	}
	if bestLen == 0 {
		return ext, 0
	}
	m.coverBuf = bitset.AppendBits(m.coverBuf[:0], m.t2Bits)
	w := 0
	for _, u := range ext {
		if !bitset.TestBit(m.t2Bits, int(u)) {
			ext[w] = u
			w++
		}
	}
	copy(ext[w:], m.coverBuf)
	return ext, bestLen
}

// insertSortedInto appends sorted S ∪ {v} to dst and returns it.
func insertSortedInto(dst, S []uint32, v uint32) []uint32 {
	i := sort.Search(len(S), func(i int) bool { return S[i] >= v })
	dst = append(dst, S[:i]...)
	dst = append(dst, v)
	dst = append(dst, S[i:]...)
	return dst
}

// removeMarked returns ext minus the members of I, filtering in place.
func (m *Miner) removeMarked(ext, I []uint32) []uint32 {
	bitset.FillBits(m.t2Bits, I)
	out := ext[:0]
	for _, u := range ext {
		if !bitset.TestBit(m.t2Bits, int(u)) {
			out = append(out, u)
		}
	}
	return out
}
