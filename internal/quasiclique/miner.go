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
// definition of each rounding, and θU[k], the least d with ⌊d/γ⌋ ≥ k,
// from the second; it refills them only when n outgrows them or
// Par.Gamma changed. (2) A bounding round stages lazily, cheapest rule
// first (see iterativeBounding): one pass over S (stageS) counts dS and
// dE and stops at the first member that fails Eq (3) or Eq (7), which
// settles about two rounds in five; only a round that gets past it
// counts ext's dS and builds the degree-sorted prefix sums of U_S and
// L_S (stageExt), and only a round that reaches Type II reads the
// Theorem 4 flags off the stored degrees. Type I counts each EE degree
// in the loop that tests it. (3) Where a round ends with S's degrees
// staged and current, the emission check of G(S) is min dS against one
// threshold (emitStaged), not a rebuilt row. (4) Below the root, S's and
// ext's membership rows are derived, not rebuilt from the lists: on a
// one-word Sub mine makes a child's S word s | v and its ext word (S ∪
// ext[i+1:]) \ S ∩ twoHop(v) and places v in S by popcount rank, and a
// round updates both rows after a critical move (reading the grown S off
// its row) and after Type I. mine reads what bounding staged: it is only
// ever entered on a node whose rows and degrees toward S are current for
// exactly ⟨S, ext⟩ — descend calls it when iterativeBounding has just
// returned from a round that removed nothing, and RecursiveMine stages
// the root — so the cover search needs no staging of its own, and the
// look-ahead row S ∪ ext[i:] is sBits|eBits at entry with one bit
// cleared per candidate. (5) On a Sub of at most 64 vertices (a matrix
// stride of one word), staging, Type I, the look-ahead, the cover search
// (which rejects a cover vertex with one mask test against S's
// low-degree members), isQC and the two-hop filter read rows as plain
// words of bitset.Matrix.Words and hold sets in local words; wider Subs
// take the same routines' row-slice loops, in the same rule order, with
// no word masks.
type Miner struct {
	Sub *Sub
	Par Params
	Opt Options

	// Emit receives every candidate quasi-clique as local indices of
	// m.Sub (unsorted): every quasi-clique of at least τsize vertices
	// the search reports that survives the screen, i.e. that no vertex
	// of m.Sub extends by one (extendable). A candidate may still be
	// non-maximal — a larger quasi-clique may differ by more than one
	// vertex, or its extra vertex lie outside m.Sub — and Finalize drops
	// those. The slice is only valid during the call. A split rebinds
	// m.Sub to each child it mines, so translate through m.Sub, not
	// through a Sub captured when the task started.
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
	EmitCount    int64 // candidates emitted: the calls of Emit
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
	dE      []int32 // degree toward ext(S), per member of S
	unionBf []uint32
	hist    []int32 // prefixByDegree's dS histogram over ext's dS range
	prefix  []int   // prefixByDegree's sums, as of the last stageExt

	// ceilMul[k] = CeilMul(γ, k), floorDiv[x] = FloorDiv(x, γ) and
	// thetaU[k] = the least d ≤ n with floorDiv[d] ≥ k (n+1 if none) for
	// k, x ∈ [0, n], filled for γ = tableGamma.
	ceilMul    []int
	floorDiv   []int
	thetaU     []int
	tableGamma float64

	// Recursion arena: frames[d] holds the reusable S′/ext′ buffers
	// for children produced at depth d, sized by Reset so the slice
	// never grows (and frame pointers never move) mid-recursion.
	frames []frame

	// applyCover's scratch, live only within one call.
	coverBuf []uint32

	// pack compacts Subtask's child rows.
	pack compactor

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
			m.thetaU = make([]int, n+1)
		}
		for k := range m.ceilMul {
			m.ceilMul[k] = CeilMul(m.Par.Gamma, k)
			m.floorDiv[k] = FloorDiv(k, m.Par.Gamma)
		}
		// floorDiv never falls as x grows, so one cursor finds every θU.
		d := 0
		for k := range m.thetaU {
			for d < len(m.floorDiv) && m.floorDiv[d] < k {
				d++
			}
			m.thetaU[k] = d
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

// checkEmit emits S if it is a valid quasi-clique of size ≥ τsize
// that no vertex of the bound Sub extends (see emit), and reports
// whether S is a valid quasi-clique of size ≥ τsize, emitted or
// screened out: either way no proper subset of S is maximal, so the
// parent has found something.
func (m *Miner) checkEmit(S []uint32) bool {
	if len(S) < m.Par.MinSize || !m.isQC(S) {
		return false
	}
	m.emit(S)
	return true
}

// emitStaged is checkEmit for an S whose degrees the current bounding
// round staged (see stagedQC).
func (m *Miner) emitStaged(S []uint32, st *staged) bool {
	if !m.stagedQC(S, st) {
		return false
	}
	m.emit(S)
	return true
}

// stagedQC reports whether S, of at least τsize vertices, is a
// γ-quasi-clique, read off a round's staging: G(S) is one iff its
// smallest degree toward S meets ⌈γ(|S|−1)⌉, which is what isQC tests
// member by member.
func (m *Miner) stagedQC(S []uint32, st *staged) bool {
	return len(S) >= m.Par.MinSize && st.minDS >= m.ceilMul[len(S)-1]
}

// emit hands the quasi-clique T to Emit unless extendable proves it is
// not maximal: then some strictly larger quasi-clique holds it, every
// maximal quasi-clique is emitted by the task whose minimum vertex is
// its own, and T would only be dropped by the maximality filter.
func (m *Miner) emit(T []uint32) {
	if m.extendable(T) {
		return
	}
	m.EmitCount++
	m.Emit(T)
}

// extendable reports whether some vertex u of the bound Sub outside T
// makes T ∪ {u} a γ-quasi-clique, exactly. Let need = ⌈γ|T|⌉, the
// degree every member of T ∪ {u} needs. A member of T with degree
// below need−1 inside T cannot reach it with u's one edge; one at
// exactly need−1 is critical and needs u as a neighbour. So u extends
// T iff no member is below need−1, u has at least need neighbours in T
// and u is adjacent to every critical member. It reads u's own row,
// not the rows of T toward u: a subtask's witness rows are listed by
// no member row (see Subtask).
func (m *Miner) extendable(T []uint32) bool {
	n, need := m.mat.N(), m.ceilMul[len(T)]
	if m.mat.Stride() == 1 {
		w := m.mat.Words()
		var t, crit uint64
		for _, v := range T {
			t |= 1 << (v % 64)
		}
		for _, v := range T {
			switch d := bits.OnesCount64(w[v] & t); {
			case d < need-1:
				return false
			case d == need-1:
				crit |= 1 << (v % 64)
			}
		}
		for rest := ^t & (^uint64(0) >> (64 - n)); rest != 0; rest &= rest - 1 {
			r := w[bits.TrailingZeros64(rest)]
			if r&crit == crit && bits.OnesCount64(r&t) >= need {
				return true
			}
		}
		return false
	}
	tb, crit := m.tBits, m.t2Bits
	bitset.FillBits(tb, T)
	clear(crit)
	ncrit := 0
	for _, v := range T {
		switch d := bitset.AndCount(m.mat.Row(int(v)), tb); {
		case d < need-1:
			return false
		case d == need-1:
			bitset.SetBit(crit, int(v))
			ncrit++
		}
	}
	for u := 0; u < n; u++ {
		if bitset.TestBit(tb, u) {
			continue
		}
		row := m.mat.Row(u)
		if bitset.AndCount(row, tb) >= need && bitset.AndCount(row, crit) == ncrit {
			return true
		}
	}
	return false
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

// emitUnion emits S ∪ rem, which isUnionQC accepted.
func (m *Miner) emitUnion(S, rem []uint32) {
	m.unionBf = m.unionBf[:0]
	m.unionBf = append(m.unionBf, S...)
	m.unionBf = append(m.unionBf, rem...)
	m.emit(m.unionBf)
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

// filterTwoHopInto appends to dst the members of cand in tb, a
// vertex's two-hop row (diameter pruning P1 applied to ext(S′),
// Algorithm 2 line 12), and returns the extended slice. cand keeps its
// order (it carries applyCover's reordering), so membership is tested
// per element rather than extracted from the row — extraction would
// resort it and change the enumeration order.
func filterTwoHopInto(tb []uint64, cand, dst []uint32) []uint32 {
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
	prune bool // prune S's extensions
	value int
	have  bool
}

// staged is what one bounding round reads about S, gathered by stageS
// in its pass over S (dS and dE are each member's degrees toward S and
// toward ext).
type staged struct {
	nS, nExt int // |S| and |ext|
	sumS     int // Σ_{v∈S} dS(v)
	minDS    int // min_{v∈S} dS(v)
	minDSE   int // min_{v∈S} dS(v) + dE(v)
}

// The tests that end a round's S pass (stageS) at a member.
const (
	cutNone = iota
	cutEq3  // dS(v)+dE(v) < θU[|S|]: U_S^min < 1 (Eq 3)
	cutEq7  // dS(v)+|ext| < ⌈γ(|S|+|ext|−1)⌉: no L_S^min (Eq 7)
)

// iterativeBounding is Algorithm 1: it applies the bounds (P4, P5),
// critical-vertex expansion (Theorem 9), the Type II rules (Theorems 4,
// 6, 8) and the iterative Type I rules (Theorems 3, 5, 7) until a
// fixpoint. S must be sorted and ext non-empty, and sBits and eBits
// must hold them.
//
// It returns pruned = true iff extending S (beyond S itself) is
// pruned; when extensions are pruned but S survives the Type II
// checks, G(S) is emission-checked internally. found reports whether a
// check inside the rounds met a valid quasi-clique of at least τsize
// vertices (emitted or screened): it holds the original S, so no
// proper subset of it is maximal. The returned S may have grown
// (critical-vertex moves, in place when capacity allows) and the
// returned ext is the shrunk candidate set; iterativeBounding takes
// ownership of both input slices and mutates them in place, and leaves
// sBits and eBits holding them. pruned == false implies the returned
// ext is non-empty.
//
// A round runs the rules cheapest first, and stages only what the next
// rule reads:
//   - The S pass (stageS) counts dS and dE of each member of S and stops
//     at the first that fails Eq (3) or Eq (7). Eq (3) fails, U_S^min =
//     ⌊min(dS+dE)/γ⌋ + 1 − |S| < 1, iff some member has dS+dE below θU[|S|],
//     the least d with ⌊d/γ⌋ ≥ |S|, as ⌊d/γ⌋ never falls as d grows.
//     Then no extension is feasible, but G(S) is (the note below Eq 4),
//     so it is emission-checked by isQC: the pass stopped before min dS
//     was known. Eq (7) fails, no t ∈ [0, |ext|] has min dS + t ≥
//     ⌈γ(|S|+t−1)⌉, iff some member has dS + |ext| < ⌈γ(|S|+|ext|−1)⌉,
//     because ⌈γ(k+1)⌉ ≤ ⌈γk⌉ + 1 for γ ≤ 1, so ⌈γ(|S|+t−1)⌉ − t never
//     rises with t and t = |ext| is the loosest. At t = 0 the same test
//     shows S is no quasi-clique, so the round ends with no emission,
//     as the eager order (the upper bound's t-loop first) would have
//     emitted nothing either.
//   - The ext pass (stageExt) counts ext's dS and builds the degree
//     prefix, and the t-loops of Eqs (4) and (8) run on it.
//   - Critical-vertex expansion, then Type II, which decides only
//     under an ablation (below).
//   - Type I (pruneExt), which loops when it removed a vertex.
//
// With both bounds and degree pruning on, no Type II rule decides,
// because an earlier exit always fires first. Write need[k] = ⌈γk⌉, so
// θU[|S|] = need[|S|]:
//   - Thm 4(i), a member with dE = 0 and dS < need[|S|], has dS+dE below
//     θU[|S|]: Eq (3) cut the round.
//   - Thm 6, min dS + U_S < need[|S|+U_S−1], holds exactly when U_S <
//     L_S^min, as need[|S|+t−1] − t never rises with t: U_S < L_S ended
//     the round.
//   - Thm 8, min(dS+dE) < need[|S|+L_S−1], means ⌊min(dS+dE)/γ⌋ + 1 − |S|
//     < L_S, so U_S < L_S.
//   - Thm 4(ii) for a member with dS = a and dE = b, a+b < need[|S|−1+b],
//     gives U_S < b the same way, and a+t < need[|S|+t−1] for every
//     t ≤ b, so U_S < L_S^min.
//
// The block stays because the rules do decide under DisableUpperBound
// or DisableLowerBound: without it those ablations mine larger trees,
// and an eager round under {DisableLowerBound, DisableCriticalVertex}
// ends at Thm 6. TestBoundingRoundLazyExact fails if a round under the
// default options ends at a Type II rule. Theorems 6 and 8 are
// comparisons; Theorem 4's flags are read off the stored dS and dE
// (theorem4), only when degree pruning is on and min dS or min(dS+dE)
// is low enough for either. Theorem 4(i) spares S itself, so it applies
// only when none of the others does.
//
// A pruned round leaves dS and dE stale: from the member an S pass
// stopped at onward they hold an earlier round's values, and ext's dS
// and the prefix are not counted. Nothing reads them before the next staging:
// the Eq (3) check reads the matrix, and mine is entered only after a
// round that pruned nothing.
func (m *Miner) iterativeBounding(S, ext []uint32) (pruned, found bool, outS, outExt []uint32) {
	need := m.ceilMul
	for {
		ns, ne := len(S), len(ext)
		th3, th7 := 0, 0 // 0: the test is off (no degree is below it)
		if !m.Opt.DisableUpperBound {
			th3 = m.thetaU[ns]
		}
		if !m.Opt.DisableLowerBound {
			th7 = need[ns+ne-1] - ne
		}
		st, cut := m.stageS(S, th3, th7)
		switch cut {
		case cutEq3:
			return true, m.checkEmit(S) || found, S, ext
		case cutEq7:
			return true, found, S, ext
		}
		st.nExt = ne
		m.stageExt(ext, ns)
		ub := m.computeUpper(&st)
		if ub.prune {
			return true, m.emitStaged(S, &st) || found, S, ext
		}
		lb := m.computeLower(&st)
		if lb.prune {
			return true, found, S, ext // lower-bound failures invalidate S too
		}
		if ub.have && lb.have && ub.value < lb.value {
			// S needs ≥ L_S ≥ 1 more vertices but can take at most
			// U_S < L_S, so neither S nor any extension is valid.
			return true, found, S, ext
		}

		// Critical-vertex pruning (P6, Theorem 9): needs L_S. A member
		// with dS + dE = crit exists only if the minimum is ≤ crit.
		if lb.have && !m.Opt.DisableCriticalVertex && st.minDSE <= need[ns+lb.value-1] {
			crit := need[ns+lb.value-1]
			moved := false
			for _, v := range S {
				// I = Γ(v) ∩ ext(S), empty when dE(v) = 0; all of I
				// must join S.
				if int(m.dS[v]+m.dE[v]) != crit || m.dE[v] == 0 {
					continue
				}
				// The paper (T5): examine G(S) before expanding, or
				// the result is missed if the expansion fails. Quick
				// omits this check.
				if !m.Opt.QuickCompat && m.emitStaged(S, &st) {
					found = true
				}
				bitset.AndTo(m.tBits, m.mat.Row(int(v)), m.eBits)
				bitset.OrWith(m.sBits, m.tBits)
				for i, x := range m.tBits {
					m.eBits[i] &^= x
				}
				S = bitset.AppendBits(S[:0], m.sBits)
				ext = removeMarked(ext, m.tBits)
				moved = true
				break
			}
			if moved {
				if len(ext) == 0 {
					return true, m.checkEmit(S) || found, S, ext
				}
				continue // recompute degrees and bounds from scratch
			}
		}

		// Type II pruning (Theorems 4, 6, 8).
		if ub.have && st.minDS+ub.value < need[ns+ub.value-1] {
			return true, found, S, ext // Thm 6: includes S′ = S
		}
		if lb.have && st.minDSE < need[ns+lb.value-1] {
			return true, found, S, ext // Thm 8: includes S′ = S
		}
		// Theorem 4 needs min dS or min(dS+dE) low (see theorem4).
		if !m.Opt.DisableDegreePruning && (st.minDS < need[ns-1] || st.minDSE < need[ns]) {
			thm4i, thm4ii := m.theorem4(S)
			if thm4ii {
				return true, found, S, ext // Thm 4(ii): S and extensions pruned
			}
			if thm4i {
				return true, m.emitStaged(S, &st) || found, S, ext
			}
		}

		var removed bool
		ext, removed = m.pruneExt(ext, &st, ub, lb)
		if len(ext) == 0 {
			return true, m.emitStaged(S, &st) || found, S, ext
		}
		if !removed {
			return false, found, S, ext
		}
	}
}

// theorem4 reports Theorem 4's two conditions over S, read off the dS
// and dE the round's S pass stored: (i) some v ∈ S has dE(v) = 0 and
// dS(v) < ⌈γ·|S|⌉; (ii) some v ∈ S has dS(v) + dE(v) < ⌈γ·(|S| − 1 +
// dE(v))⌉. So (i) needs min(dS+dE) < ⌈γ·|S|⌉, and (ii), which reads
// dS(v) < ⌈γ(|S|−1+b)⌉ − b, needs min dS < ⌈γ(|S|−1)⌉, as that
// threshold never rises with b (as in Eq 7's test): S is then no
// quasi-clique.
func (m *Miner) theorem4(S []uint32) (thm4i, thm4ii bool) {
	need, ns := m.ceilMul, len(S)
	for _, v := range S {
		a, b := int(m.dS[v]), int(m.dE[v])
		thm4ii = thm4ii || a+b < need[ns-1+b]
		thm4i = thm4i || b == 0 && a < need[ns]
	}
	return thm4i, thm4ii
}

// pruneExt is a round's Type I pruning (Theorems 3, 5, 7): it filters
// ext in place, keeping the members no rule drops, updates eBits to
// match, and reports whether it dropped any. Each member's EE degree
// is counted in the loop that tests it, only when Type II did not
// already settle the node (the paper's T2). Requires the round's
// stageS and stageExt.
func (m *Miner) pruneExt(ext []uint32, st *staged, ub, lb boundsResult) ([]uint32, bool) {
	need, ns := m.ceilMul, st.nS
	degRule := !m.Opt.DisableDegreePruning
	one := m.mat.Stride() == 1
	w := m.mat.Words()
	var e, kw uint64 // ext's row and its kept members when they are one word
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
			kw |= 1 << (u % 64)
		}
	}
	removed := len(kept) < len(ext)
	switch {
	case one:
		m.eBits[0] = kw
	case removed:
		bitset.FillBits(m.eBits, kept)
	}
	return kept, removed
}

// stageS is a bounding round's pass over S: it stores dS and dE of
// each member and folds them into the round's staged values, and stops
// at the first member with dS+dE < th3 (cutEq3) or dS < th7 (cutEq7),
// returning which; a threshold of 0 never stops it. It reads S's and
// ext's membership rows from sBits and eBits. The returned nExt is
// unset.
func (m *Miner) stageS(S []uint32, th3, th7 int) (staged, int) {
	ns := len(S)
	one := m.mat.Stride() == 1
	w := m.mat.Words()
	s, e := m.sBits[0], m.eBits[0] // the rows, when they are one word
	sum, minDS, minDSE := 0, ns, math.MaxInt
	for _, v := range S {
		var a, b int
		if one {
			a, b = bits.OnesCount64(w[v]&s), bits.OnesCount64(w[v]&e)
		} else {
			row := m.mat.Row(int(v))
			a, b = bitset.AndCount(row, m.sBits), bitset.AndCount(row, m.eBits)
		}
		if a+b < th3 {
			return staged{}, cutEq3
		}
		if a < th7 {
			return staged{}, cutEq7
		}
		m.dS[v], m.dE[v] = int32(a), int32(b)
		sum += a
		minDS, minDSE = min(minDS, a), min(minDSE, a+b)
	}
	return staged{nS: ns, sumS: sum, minDS: minDS, minDSE: minDSE}, cutNone
}

// stageExt is a bounding round's pass over ext, for the rules that read
// it: it stores each member's dS (|S| = ns) and builds the degree
// prefix U_S and L_S share. EE degrees wait for Type I (the paper's
// T2).
func (m *Miner) stageExt(ext []uint32, ns int) {
	one := m.mat.Stride() == 1
	w := m.mat.Words()
	s := m.sBits[0]
	lo, hi := ns, 0 // ext's dS range
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
}

// computeUpper derives U_S (P4, Eqs 1–4) from a round's staged values.
func (m *Miner) computeUpper(st *staged) boundsResult {
	if m.Opt.DisableUpperBound {
		return boundsResult{}
	}
	need, ns := m.ceilMul, st.nS
	// Eq (3); below 1 (the S pass's cut) the t-loop is empty.
	umin := min(m.floorDiv[st.minDSE]+1-ns, st.nExt)
	for t := umin; t >= 1; t-- { // Eq (4): max feasible t
		if st.sumS+m.prefix[t] >= ns*need[ns+t-1] {
			return boundsResult{value: t, have: true}
		}
	}
	return boundsResult{prune: true}
}

// computeLower derives L_S (P5, Eqs 6–8) from a round's staged values.
// A prune also proves S itself invalid.
func (m *Miner) computeLower(st *staged) boundsResult {
	if m.Opt.DisableLowerBound {
		return boundsResult{}
	}
	need, ns := m.ceilMul, st.nS
	t := 0 // Eq (7): L_S^min, which the S pass found to exist
	for t <= st.nExt && st.minDS+t < need[ns+t-1] {
		t++
	}
	for ; t <= st.nExt; t++ { // Eq (8): min feasible t
		if st.sumS+m.prefix[t] >= ns*need[ns+t-1] {
			return boundsResult{value: t, have: true}
		}
	}
	return boundsResult{prune: true}
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
// an emission check below S met a valid quasi-clique of at least τsize
// vertices strictly containing S — emitted, or held back by the
// emission screen because a larger one contains it. The checks inside
// bounding count (see iterativeBounding), and so does an offloaded
// child's own G(S′), checked when it is offloaded; the subtask's
// outcome is unknown here. A node whose children found something skips
// its own check of G(S), which could only be non-maximal.
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
	m.loadRows(S, ext)
	m.stageS(S, 0, 0)
	m.stageExt(ext, len(S))
	return m.mine(S, ext, 0)
}

// loadRows fills sBits and eBits from the lists S and ext.
func (m *Miner) loadRows(S, ext []uint32) {
	bitset.FillBits(m.sBits, S)
	bitset.FillBits(m.eBits, ext)
}

// mine expands the node ⟨S, ext⟩, whose degrees are staged: sBits,
// eBits and dS of every vertex of S ∪ ext describe exactly ⟨S, ext⟩
// (see the Miner doc's "Per-node cost"). Each child's rows go to
// descend in sBits and eBits; on a one-word Sub they are derived from
// S's word s, held here across the recursion, and the look-ahead row.
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
	one, s := stride == 1, m.sBits[0]
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
		union[v/64] &^= 1 << (v % 64) // union is now S ∪ ext[i+1:]
		m.Nodes++
		hop := m.twoHopRow(int(v))
		fr.ext = filterTwoHopInto(hop, ext[i+1:], fr.ext[:0])
		bit := uint64(1) << (v % 64)
		if one {
			fr.S = insertAt(fr.S[:0], S, bits.OnesCount64(s&(bit-1)), v)
		} else {
			fr.S = insertSortedInto(fr.S[:0], S, v)
		}
		if len(fr.ext) == 0 {
			// Quick misses this check (the paper, T6).
			if !m.Opt.QuickCompat && m.checkEmit(fr.S) {
				found = true
			}
			continue
		}
		if one {
			m.sBits[0], m.eBits[0] = s|bit, union[0]&^s&hop[0]
		} else {
			m.loadRows(fr.S, fr.ext)
		}
		if m.descend(fr, depth+1) {
			found = true
		}
	}
	return found
}

// descend finishes the loop body of Algorithm 2 for the child
// ⟨fr.S, fr.ext⟩ whose ext is diameter-filtered and non-empty and
// whose rows sBits and eBits hold: bounding, the size cut, then
// off-load or recursion at depth, and the emission check of G(S′) when
// nothing below it was found. It reports whether something containing
// fr.S was found, bounding's own checks included; a hit of the check
// before a critical move does not spare the grown S′ its check.
func (m *Miner) descend(fr *frame, depth int) bool {
	pruned, found, S2, ext2 := m.iterativeBounding(fr.S, fr.ext)
	fr.S, fr.ext = S2, ext2 // keep any grown capacity for reuse
	if pruned || len(S2)+len(ext2) < m.Par.MinSize {
		return found
	}
	if m.TimedOut != nil && m.Offload != nil && m.TimedOut() {
		// Time-delayed decomposition (Algorithm 10 lines 18–24): wrap
		// the subtree as an independent task. The outcome of the
		// subtask is unknown here, so G(S′) must be emission-checked
		// now; a later subtask result may supersede it and the
		// post-filter removes it then.
		m.OffloadCount++
		m.Offload(S2, ext2)
		return m.checkEmit(S2) || found
	}
	return m.mine(S2, ext2, depth) || m.checkEmit(S2) || found
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
	m.loadRows(S, ext)
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
// applies. A candidate u is rejected with one mask test when a
// non-neighbour of u in S is below thresh, and otherwise intersects the
// rows of its non-neighbours in S alone.
func (m *Miner) coverWord(S, ext []uint32, thresh int) int {
	w, s, e := m.mat.Words(), m.sBits[0], m.eBits[0]
	var low uint64 // the members of S with dS < thresh
	for _, v := range S {
		if int(m.dS[v]) < thresh {
			low |= 1 << (v % 64)
		}
	}
	bestLen := 0
	var best uint64
	for _, u := range ext {
		if int(m.dS[u]) < thresh {
			continue
		}
		row := w[u]
		c := row & e
		cnt := bits.OnesCount64(c)
		non := s &^ row // u's non-neighbours in S
		if cnt <= bestLen || non&low != 0 {
			continue
		}
		ok := true
		for ; non != 0; non &= non - 1 {
			c &= w[bits.TrailingZeros64(non)]
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
	return insertAt(dst, S, i, v)
}

// insertAt appends S with v inserted at index i to dst and returns it.
func insertAt(dst, S []uint32, i int, v uint32) []uint32 {
	dst = append(dst, S[:i]...)
	dst = append(dst, v)
	dst = append(dst, S[i:]...)
	return dst
}

// removeMarked returns ext minus the members of the row I, filtering
// in place.
func removeMarked(ext []uint32, I []uint64) []uint32 {
	out := ext[:0]
	for _, u := range ext {
		if !bitset.TestBit(I, int(u)) {
			out = append(out, u)
		}
	}
	return out
}
