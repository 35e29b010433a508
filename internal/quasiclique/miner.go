package quasiclique

import (
	"math"
	"math/bits"
	"slices"

	"gthinkerqc/internal/bitset"
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
// mining allocates nothing per expanded tree node.
//
// Every rule runs on the bound Sub's bitset adjacency matrix (see the
// package doc's "One representation").
//
// Per-node cost. Five things keep a search-tree node down to its
// popcounts. (1) Every degree threshold is a table lookup: Reset fills
// ⌈γ·k⌉ and ⌊x/γ⌋ for k, x ∈ [0, n] from CeilMul and FloorDiv, the one
// definition of each rounding, and refills them only when n outgrows
// them or Par.Gamma changed. (2) A bounding round makes one pass over
// S ∪ ext (stageDegrees): it loads the membership rows, stores dS and
// dE of S and dS of ext, and folds them as it goes into everything the
// round's rules read — Σ dS, min dS and min(dS+dE) over S, the
// Theorem 4 flags, and the dS range of ext, over which a counting pass
// builds the degree-sorted prefix sums of U_S and L_S. The bounds keep
// only their t-loops, Type II is a few comparisons, and Type I counts
// each EE degree in the loop that tests it. (3) Where a round ends with
// S's degrees staged and current, the emission check of G(S) is min dS
// against one threshold (emitStaged), not a rebuilt row. (4) mine reads
// what bounding staged: it is only ever entered on a node whose
// membership rows and degrees toward S are current for exactly
// ⟨S, ext⟩ — descend calls it when iterativeBounding has just returned
// from a staging round that removed nothing, and RecursiveMine stages
// the root — so the cover search needs no staging of its own, and the
// look-ahead row S ∪ ext[i:] is sBits|eBits at entry with one bit
// cleared per candidate. (5) On a Sub of at most 64 vertices (a matrix
// stride of one word), staging, Type I, the look-ahead, the cover
// search, isQC and the two-hop filter read rows as plain words of
// bitset.Matrix.Words and hold S, ext and the set under test in local
// words; wider Subs take the same routines' row-slice loops.
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
	// its arguments if it retains them; Subtask makes the child task.
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

	dS      []int32  // degree toward S, per local vertex
	dE      []int32  // degree toward ext(S), per member of S
	pos     []uint32 // Subtask's position table: local vertex → child index
	unionBf []uint32
	hist    []int32 // prefixByDegree's dS histogram over ext's dS range
	prefix  []int   // prefixByDegree's sums, as of the last stageDegrees

	// ceilMul[k] = CeilMul(γ, k) and floorDiv[x] = FloorDiv(x, γ) for
	// k, x ∈ [0, n], filled for γ = tableGamma.
	ceilMul    []int
	floorDiv   []int
	tableGamma float64

	// Recursion arena: frames[d] holds the reusable S′/ext′ buffers
	// for children produced at depth d, sized by Reset so the slice
	// never grows (and frame pointers never move) mid-recursion.
	frames []frame

	// applyCover / critical-vertex scratch, live only within one call.
	coverBuf []uint32
	critBuf  []uint32
	mergeBuf []uint32

	// sc materialises a split's children.
	sc Scratch
}

// frame is one recursion level's child buffers, and the look-ahead row
// of the mine call at that level.
type frame struct {
	S     []uint32
	ext   []uint32
	union []uint64 // S ∪ ext[i:] of mine's loop, one stride long
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
// miner-owned storage — a copy of a rows Sub's Rows, or filled from a
// list Sub's Adj; a bigger Sub gets none, and RecursiveMine splits it.
// Par may change between tasks: Reset reads it.
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
		m.pos = make([]uint32, n)
		m.hist = make([]int32, n+1)
		m.prefix = make([]int, n+1)
	}
	// Every threshold the recursion looks up is indexed by a set size,
	// a degree, or |S| plus a bound on the extension, and S ∪ ext is a
	// subset of the bound Sub, so no index exceeds n.
	if len(m.ceilMul) <= n || m.tableGamma != m.Par.Gamma {
		if len(m.ceilMul) <= n {
			m.ceilMul = make([]int, n+1)
			m.floorDiv = make([]int, n+1)
		}
		for k := range m.ceilMul {
			m.ceilMul[k] = CeilMul(m.Par.Gamma, k)
			m.floorDiv[k] = FloorDiv(k, m.Par.Gamma)
		}
		m.tableGamma = m.Par.Gamma
	}
	// Each recursion level grows S by ≥ 1 vertex, so depth < n and
	// frames never needs to grow (which would move frame pointers)
	// mid-recursion.
	if len(m.frames) < n+1 {
		frames := make([]frame, n+1)
		copy(frames, m.frames)
		m.frames = frames
	}
	if sub.Rows != nil {
		m.mat.Load(n, sub.Rows)
	} else {
		m.mat.Reset(n)
		for i, row := range sub.Adj {
			r := m.mat.Row(i)
			for _, u := range row {
				bitset.SetBit(r, int(u))
			}
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

// emitStaged is checkEmit for an S whose degrees the current bounding
// round staged: G(S) is a γ-quasi-clique iff its smallest degree toward
// S meets ⌈γ(|S|−1)⌉, which is what isQC tests member by member.
func (m *Miner) emitStaged(S []uint32, st *staged) {
	if len(S) < m.Par.MinSize || st.minDS < m.ceilMul[len(S)-1] {
		return
	}
	m.EmitCount++
	m.Emit(S)
}

// isQC reports whether the set S (local indices) induces a
// γ-quasi-clique. For γ ≥ 0.5 the degree condition implies
// connectivity (any two non-adjacent members must share a neighbor),
// so no reachability check is needed. S must be non-empty.
func (m *Miner) isQC(S []uint32) bool {
	need := m.ceilMul[len(S)-1]
	if m.mat.Stride() == 1 {
		w := m.mat.Words()
		var s uint64
		for _, v := range S {
			s |= 1 << (v % 64)
		}
		for _, v := range S {
			if bits.OnesCount64(w[v]&s) < need {
				return false
			}
		}
		return true
	}
	bitset.FillBits(m.tBits, S)
	for _, v := range S {
		if bitset.AndCount(m.mat.Row(int(v)), m.tBits) < need {
			return false
		}
	}
	return true
}

// isUnionQC reports whether S ∪ rem, whose membership row is union,
// induces a γ-quasi-clique (the lookahead test of Algorithm 2 lines
// 8–10).
func (m *Miner) isUnionQC(S, rem []uint32, union []uint64) bool {
	need := m.ceilMul[len(S)+len(rem)-1]
	if m.mat.Stride() == 1 {
		w, u := m.mat.Words(), union[0]
		for _, v := range S {
			if bits.OnesCount64(w[v]&u) < need {
				return false
			}
		}
		for _, v := range rem {
			if bits.OnesCount64(w[v]&u) < need {
				return false
			}
		}
		return true
	}
	for _, v := range S {
		if bitset.AndCount(m.mat.Row(int(v)), union) < need {
			return false
		}
	}
	for _, v := range rem {
		if bitset.AndCount(m.mat.Row(int(v)), union) < need {
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
	if len(tb) == 1 {
		hop := tb[0]
		for _, u := range cand {
			if hop&(1<<(u%64)) != 0 {
				dst = append(dst, u)
			}
		}
		return dst
	}
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

// staged is what one bounding round reads about ⟨S, ext⟩, gathered by
// stageDegrees in its one pass over S ∪ ext (dS and dE are each
// vertex's degrees toward S and toward ext).
type staged struct {
	nS, nExt int  // |S| and |ext|
	sumS     int  // Σ_{v∈S} dS(v)
	minDS    int  // min_{v∈S} dS(v)
	minDSE   int  // min_{v∈S} dS(v) + dE(v)
	thm4i    bool // some v ∈ S has dE(v) = 0 and dS(v) < ⌈γ·|S|⌉
	thm4ii   bool // some v ∈ S has dS(v) + dE(v) < ⌈γ·(|S| − 1 + dE(v))⌉
	extLo    int  // min_{u∈ext} dS(u); |S| when ext is empty
	extHi    int  // max_{u∈ext} dS(u); 0 when ext is empty
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
	need := m.ceilMul
	if len(ext) == 0 {
		m.checkEmit(S)
		return true, S, ext
	}
	for {
		st := m.stageDegrees(S, ext)
		ub := m.computeUpper(&st)
		if ub.prune {
			if !ub.pruneSelf {
				m.emitStaged(S, &st)
			}
			return true, S, ext
		}
		lb := m.computeLower(&st)
		if lb.prune {
			return true, S, ext // lower-bound failures invalidate S too
		}
		if ub.have && lb.have && ub.value < lb.value {
			// S needs ≥ L_S ≥ 1 more vertices but can take at most
			// U_S < L_S, so neither S nor any extension is valid.
			return true, S, ext
		}

		// Critical-vertex pruning (P6, Theorem 9): needs L_S. A member
		// with dS + dE = crit exists only if the minimum is ≤ crit.
		if lb.have && !m.Opt.DisableCriticalVertex && st.minDSE <= need[len(S)+lb.value-1] {
			crit := need[len(S)+lb.value-1]
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
					m.emitStaged(S, &st)
				}
				m.mergeBuf = union(m.mergeBuf[:0], S, I)
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

		// Type II pruning (Theorems 4, 6, 8), each a test of what the
		// round staged over S. Theorem 4(i) spares S itself, so it
		// applies only when none of the others does.
		if !m.Opt.DisableDegreePruning && st.thm4ii {
			return true, S, ext // Thm 4(ii): S and extensions pruned
		}
		if ub.have && st.minDS+ub.value < need[len(S)+ub.value-1] {
			return true, S, ext // Thm 6: includes S′ = S
		}
		if lb.have && st.minDSE < need[len(S)+lb.value-1] {
			return true, S, ext // Thm 8: includes S′ = S
		}
		if !m.Opt.DisableDegreePruning && st.thm4i {
			m.emitStaged(S, &st)
			return true, S, ext
		}

		var removed bool
		ext, removed = m.pruneExt(ext, &st, ub, lb)
		if len(ext) == 0 {
			m.emitStaged(S, &st)
			return true, S, ext
		}
		if !removed {
			return false, S, ext
		}
	}
}

// pruneExt is a round's Type I pruning (Theorems 3, 5, 7): it filters
// ext in place, keeping the members no rule drops, and reports whether
// it dropped any. Each member's EE degree is counted in the loop that
// tests it, only when Type II did not already settle the node (the
// paper's T2). Requires stageDegrees(S, ext).
func (m *Miner) pruneExt(ext []uint32, st *staged, ub, lb boundsResult) ([]uint32, bool) {
	need, ns := m.ceilMul, st.nS
	degRule := !m.Opt.DisableDegreePruning
	one := m.mat.Stride() == 1
	w := m.mat.Words()
	var e uint64 // ext's row when it is one word
	if one {
		e = m.eBits[0]
	}
	kept := ext[:0]
	for _, u := range ext {
		a := int(m.dS[u])
		var b int
		if one {
			b = bits.OnesCount64(w[u] & e)
		} else {
			b = bitset.AndCount(m.mat.Row(int(u)), m.eBits)
		}
		switch {
		case degRule && a+b < need[ns+b]: // Thm 3
		case ub.have && a+ub.value-1 < need[ns+ub.value-1]: // Thm 5
		case lb.have && a+b < need[ns+lb.value-1]: // Thm 7
		default:
			kept = append(kept, u)
		}
	}
	return kept, len(kept) < len(ext)
}

// stageDegrees makes a bounding round's one pass over S ∪ ext: it
// loads the membership rows of S and ext, stores dS and dE of S members
// and dS of ext members (EE degrees are delayed until Type I, per the
// paper's T2), folds them into the round's staged values, and builds
// the degree prefix U_S and L_S share. S must be non-empty.
func (m *Miner) stageDegrees(S, ext []uint32) staged {
	need, ns := m.ceilMul, len(S)
	one := m.mat.Stride() == 1
	w := m.mat.Words()
	var s, e uint64 // S's and ext's rows when they are one word
	if one {
		for _, v := range S {
			s |= 1 << (v % 64)
		}
		for _, u := range ext {
			e |= 1 << (u % 64)
		}
		m.sBits[0], m.eBits[0] = s, e
	} else {
		bitset.FillBits(m.sBits, S)
		bitset.FillBits(m.eBits, ext)
	}
	sum, minDS, minDSE := 0, ns, math.MaxInt
	thm4i, thm4ii := false, false
	for _, v := range S {
		var a, b int
		if one {
			a, b = bits.OnesCount64(w[v]&s), bits.OnesCount64(w[v]&e)
		} else {
			row := m.mat.Row(int(v))
			a, b = bitset.AndCount(row, m.sBits), bitset.AndCount(row, m.eBits)
		}
		m.dS[v], m.dE[v] = int32(a), int32(b)
		sum += a
		minDS, minDSE = min(minDS, a), min(minDSE, a+b)
		thm4ii = thm4ii || a+b < need[ns-1+b]
		thm4i = thm4i || b == 0 && a < need[ns]
	}
	lo, hi := ns, 0
	for _, u := range ext {
		var a int
		if one {
			a = bits.OnesCount64(w[u] & s)
		} else {
			a = bitset.AndCount(m.mat.Row(int(u)), m.sBits)
		}
		m.dS[u] = int32(a)
		lo, hi = min(lo, a), max(hi, a)
	}
	m.prefix = m.prefixByDegree(ext, lo, hi)
	return staged{
		nS: ns, nExt: len(ext), sumS: sum, minDS: minDS, minDSE: minDSE,
		thm4i: thm4i, thm4ii: thm4ii, extLo: lo, extHi: hi,
	}
}

// computeUpper derives U_S (P4, Eqs 1–4) from a round's staged values.
func (m *Miner) computeUpper(st *staged) boundsResult {
	if m.Opt.DisableUpperBound {
		return boundsResult{}
	}
	need, ns := m.ceilMul, st.nS
	umin := m.floorDiv[st.minDSE] + 1 - ns // Eq (3)
	if umin < 1 {
		// No extension size is feasible; G(S) itself remains a
		// candidate (the paper's note below Eq (4)).
		return boundsResult{prune: true}
	}
	umin = min(umin, st.nExt)
	for t := umin; t >= 1; t-- { // Eq (4): max feasible t
		if st.sumS+m.prefix[t] >= ns*need[ns+t-1] {
			return boundsResult{value: t, have: true}
		}
	}
	return boundsResult{prune: true}
}

// computeLower derives L_S (P5, Eqs 6–8) from a round's staged values.
func (m *Miner) computeLower(st *staged) boundsResult {
	if m.Opt.DisableLowerBound {
		return boundsResult{}
	}
	need, ns := m.ceilMul, st.nS
	lmin := -1
	for t := 0; t <= st.nExt; t++ { // Eq (7)
		if st.minDS+t >= need[ns+t-1] {
			lmin = t
			break
		}
	}
	if lmin < 0 {
		return boundsResult{prune: true, pruneSelf: true}
	}
	for t := lmin; t <= st.nExt; t++ { // Eq (8): min feasible t
		if st.sumS+m.prefix[t] >= ns*need[ns+t-1] {
			return boundsResult{value: t, have: true}
		}
	}
	return boundsResult{prune: true, pruneSelf: true}
}

// prefixByDegree returns prefix[t] = Σ_{i≤t} dS(u_i) with ext sorted by
// dS non-increasing (Figures 6 and 7), for ext's dS values in [lo, hi].
// The sums depend only on the multiset of those values, so ties cannot
// change them and a counting pass over the occupied band stands in for
// the sort. The returned slice aliases the miner's prefix buffer.
func (m *Miner) prefixByDegree(ext []uint32, lo, hi int) []int {
	prefix := m.prefix[:len(ext)+1]
	prefix[0] = 0
	if len(ext) == 0 {
		return prefix
	}
	hist := m.hist[:hi-lo+1]
	clear(hist)
	for _, u := range ext {
		hist[int(m.dS[u])-lo]++
	}
	i := 0
	for d := hi; d >= lo; d-- {
		for c := hist[d-lo]; c > 0; c-- {
			prefix[i+1] = prefix[i] + d
			i++
		}
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
	if len(S) == 0 {
		return false // not a node of the search tree: every node holds a vertex
	}
	if sub := m.Sub; sub.N() > matrixCap {
		defer func() { m.Sub = sub }()
		return m.split(sub, S, ext)
	}
	m.stageDegrees(S, ext)
	return m.mine(S, ext, 0)
}

// mine expands the node ⟨S, ext⟩, whose degrees are staged: sBits,
// eBits and dS of every vertex of S ∪ ext describe exactly ⟨S, ext⟩
// (see the Miner doc's "Per-node cost").
func (m *Miner) mine(S, ext []uint32, depth int) bool {
	found := false
	coverLen := 0
	if !m.Opt.DisableCoverVertex {
		ext, coverLen = m.applyCover(S, ext)
	}
	fr := &m.frames[depth]
	// union is S ∪ ext[i:]: the staged rows at entry (the cover search
	// only reorders ext), less one candidate per iteration.
	stride := len(m.sBits)
	if cap(fr.union) < stride {
		fr.union = make([]uint64, stride)
	}
	union := fr.union[:stride]
	copy(union, m.sBits)
	bitset.OrWith(union, m.eBits)
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
		if !m.Opt.DisableLookahead && m.isUnionQC(S, rem, union) {
			m.emitUnion(S, rem)
			return true
		}
		v := ext[i]
		union[v/64] &^= 1 << (v % 64)
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
// length. It reads eBits and dS as staged for ⟨S, ext⟩ (see mine).
func (m *Miner) applyCover(S, ext []uint32) ([]uint32, int) {
	if len(ext) == 0 {
		return ext, 0
	}
	thresh := m.ceilMul[len(S)]
	var bestLen int
	if m.mat.Stride() == 1 {
		bestLen = m.coverWord(S, ext, thresh)
	} else {
		bestLen = m.coverRows(S, ext, thresh)
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

// coverWord is applyCover's search on one-word rows: it leaves the
// largest C_S(u) in t2Bits and returns its size, 0 if no cover vertex
// applies.
func (m *Miner) coverWord(S, ext []uint32, thresh int) int {
	w, e := m.mat.Words(), m.eBits[0]
	bestLen := 0
	var best uint64
	for _, u := range ext {
		if int(m.dS[u]) < thresh {
			continue
		}
		row := w[u]
		c := row & e
		cnt := bits.OnesCount64(c)
		if cnt <= bestLen {
			continue
		}
		ok := true
		for _, v := range S {
			if row&(1<<(v%64)) != 0 {
				continue
			}
			if int(m.dS[v]) < thresh {
				ok = false
				break
			}
			c &= w[v]
			if cnt = bits.OnesCount64(c); cnt <= bestLen {
				ok = false
				break
			}
		}
		if ok {
			bestLen, best = cnt, c
		}
	}
	m.t2Bits[0] = best
	return bestLen
}

// coverRows is coverWord on row slices, for Subs wider than one word.
func (m *Miner) coverRows(S, ext []uint32, thresh int) int {
	bestLen := 0
	for _, u := range ext {
		// Applicability: dS(u) ≥ ⌈γ|S|⌉.
		if int(m.dS[u]) < thresh {
			continue
		}
		row := m.mat.Row(int(u))
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
	return bestLen
}

// insertSortedInto appends sorted S ∪ {v} to dst and returns it.
func insertSortedInto(dst, S []uint32, v uint32) []uint32 {
	i, _ := slices.BinarySearch(S, v)
	dst = append(dst, S[:i]...)
	dst = append(dst, v)
	dst = append(dst, S[i:]...)
	return dst
}

// union appends a ∪ b (both sorted strictly increasing) to dst and
// returns the extended slice.
func union(dst, a, b []uint32) []uint32 {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			dst = append(dst, a[i])
			i++
		case a[i] > b[j]:
			dst = append(dst, b[j])
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	dst = append(dst, a[i:]...)
	dst = append(dst, b[j:]...)
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
