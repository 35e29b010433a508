package quasiclique

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"gthinkerqc/internal/bitset"
	"gthinkerqc/internal/graph"
)

// eagerStaged is what the eager reference stages in one round: every
// value a rule may read, whether it reads it or not.
type eagerStaged struct {
	staged
	thm4i, thm4ii bool
}

// stageEager is the reference for a bounding round's staging: one pass
// over S ∪ ext that loads the membership rows, stores dS and dE of S
// and dS of ext, folds them into the staged values and the Theorem 4
// flags, and builds the degree prefix. It reads rows as row slices on
// every width.
func stageEager(m *Miner, S, ext []uint32) eagerStaged {
	need, ns := m.ceilMul, len(S)
	bitset.FillBits(m.sBits, S)
	bitset.FillBits(m.eBits, ext)
	st := eagerStaged{staged: staged{nS: ns, nExt: len(ext), minDS: ns, minDSE: math.MaxInt}}
	for _, v := range S {
		row := m.mat.Row(int(v))
		a, b := bitset.AndCount(row, m.sBits), bitset.AndCount(row, m.eBits)
		m.dS[v], m.dE[v] = int32(a), int32(b)
		st.sumS += a
		st.minDS, st.minDSE = min(st.minDS, a), min(st.minDSE, a+b)
		st.thm4ii = st.thm4ii || a+b < need[ns-1+b]
		st.thm4i = st.thm4i || b == 0 && a < need[ns]
	}
	lo, hi := ns, 0
	for _, u := range ext {
		a := bitset.AndCount(m.mat.Row(int(u)), m.sBits)
		m.dS[u] = int32(a)
		lo, hi = min(lo, a), max(hi, a)
	}
	m.prefix = m.prefixByDegree(ext, lo, hi)
	return st
}

// eagerBounding is the reference bounding round: Algorithm 1 over the
// eager staging, in the order U_S (Eq 3, then the t-loop of Eq 4), L_S
// (Eq 7, then Eq 8), U_S < L_S, the critical vertex, Type II (Theorem
// 4(ii), 6, 8, 4(i)) and Type I. It returns what iterativeBounding
// returns, the name of the rule that ended the last round, and how
// many critical moves it made.
func eagerBounding(m *Miner, S, ext []uint32) (pruned, found bool, outS, outExt []uint32, exit string, moves int) {
	need := m.ceilMul
	for {
		est := stageEager(m, S, ext)
		st := &est.staged
		ns := st.nS
		ub := boundsResult{}
		if !m.Opt.DisableUpperBound {
			umin := m.floorDiv[st.minDSE] + 1 - ns // Eq (3)
			if umin < 1 {
				return true, m.emitStaged(S, st) || found, S, ext, "eq3", moves
			}
			ub.prune = true
			for t := min(umin, st.nExt); t >= 1; t-- { // Eq (4)
				if st.sumS+m.prefix[t] >= ns*need[ns+t-1] {
					ub = boundsResult{value: t, have: true}
					break
				}
			}
			if ub.prune {
				return true, m.emitStaged(S, st) || found, S, ext, "eq4", moves
			}
		}
		lb := boundsResult{}
		if !m.Opt.DisableLowerBound {
			lmin := -1
			for t := 0; t <= st.nExt; t++ { // Eq (7)
				if st.minDS+t >= need[ns+t-1] {
					lmin = t
					break
				}
			}
			if lmin < 0 {
				return true, found, S, ext, "eq7", moves
			}
			lb.prune = true
			for t := lmin; t <= st.nExt; t++ { // Eq (8)
				if st.sumS+m.prefix[t] >= ns*need[ns+t-1] {
					lb = boundsResult{value: t, have: true}
					break
				}
			}
			if lb.prune {
				return true, found, S, ext, "eq8", moves
			}
		}
		if ub.have && lb.have && ub.value < lb.value {
			return true, found, S, ext, "ub<lb", moves
		}
		if lb.have && !m.Opt.DisableCriticalVertex {
			crit := need[ns+lb.value-1]
			moved := false
			for _, v := range S {
				if int(m.dS[v]+m.dE[v]) != crit {
					continue
				}
				var I []uint32
				for _, u := range ext {
					if bitset.TestBit(m.mat.Row(int(v)), int(u)) {
						I = append(I, u)
					}
				}
				if len(I) == 0 {
					continue
				}
				if !m.Opt.QuickCompat && m.emitStaged(S, st) {
					found = true
				}
				S = append(S, I...)
				slices.Sort(S)
				slices.Sort(I)
				ext = slices.DeleteFunc(ext, func(u uint32) bool { _, in := slices.BinarySearch(I, u); return in })
				moved = true
				moves++
				break
			}
			if moved {
				if len(ext) == 0 {
					return true, m.checkEmit(S) || found, S, ext, "crit-empty", moves
				}
				continue
			}
		}
		degRule := !m.Opt.DisableDegreePruning
		switch {
		case degRule && est.thm4ii:
			return true, found, S, ext, "thm4ii", moves
		case ub.have && st.minDS+ub.value < need[ns+ub.value-1]:
			return true, found, S, ext, "thm6", moves
		case lb.have && st.minDSE < need[ns+lb.value-1]:
			return true, found, S, ext, "thm8", moves
		case degRule && est.thm4i:
			return true, m.emitStaged(S, st) || found, S, ext, "thm4i", moves
		}
		var removed bool
		ext, removed = m.pruneExt(ext, st, ub, lb)
		if len(ext) == 0 {
			return true, m.emitStaged(S, st) || found, S, ext, "typeI-empty", moves
		}
		if !removed {
			return false, found, S, ext, "open", moves
		}
	}
}

// coverRef is the reference cover search (P7): the cover vertex u ∈ ext
// with dS(u) ≥ ⌈γ|S|⌉ whose C_S(u) — Γ_ext(u) intersected with the rows
// of u's non-neighbours in S, each of which needs dS ≥ ⌈γ|S|⌉ — is
// largest, the first in ext order on a tie. It returns ext with C_S(u)
// moved to the tail in ascending order, and |C_S(u)|, 0 when no cover
// vertex applies. It reads dS as staged.
func coverRef(m *Miner, S, ext []uint32) ([]uint32, int) {
	thresh := m.ceilMul[len(S)]
	var best []uint32
	for _, u := range ext {
		if int(m.dS[u]) < thresh {
			continue
		}
		row := m.mat.Row(int(u))
		ok := true
		for _, v := range S {
			if !bitset.TestBit(row, int(v)) && int(m.dS[v]) < thresh {
				ok = false
			}
		}
		if !ok {
			continue
		}
		var c []uint32
		for _, x := range ext {
			in := bitset.TestBit(row, int(x))
			for _, v := range S {
				if !bitset.TestBit(row, int(v)) {
					in = in && bitset.TestBit(m.mat.Row(int(v)), int(x))
				}
			}
			if in {
				c = append(c, x)
			}
		}
		if len(c) > len(best) {
			best = c
		}
	}
	slices.Sort(best)
	out := slices.DeleteFunc(slices.Clone(ext), func(x uint32) bool { _, in := slices.BinarySearch(best, x); return in })
	return append(out, best...), len(best)
}

// roundInput is one ⟨S, ext⟩ on a Sub, with the parameters to bound it
// under.
type roundInput struct {
	kind   string
	sub    *Sub
	S, ext []uint32
	par    Params
}

// roundInputs draws bounding-round inputs of four kinds: one-word Subs
// (2–64 vertices), Subs of 65–200 vertices, the subtasks, witness rows
// included, that decomposed searches offload from Subs of both widths,
// and the nodes of whole searches over such subtasks. S is random or
// grown dense (so rounds get past the S pass), and sometimes holds
// members 64 apart; ext is the rest of the Sub, a random part of it,
// S's two-hop candidates or a few vertices, or S and ext split a dense
// set. On a subtask both are drawn from S′ ∪ ext′, never from its
// witnesses, or are S′ and ext′ themselves.
func roundInputs(rng *rand.Rand) []roundInput {
	var out []roundInput
	draw := func(kind string, sub *Sub, pool []uint32, par Params) {
		for k := 0; k < 10; k++ {
			ns := 1 + rng.Intn(min(len(pool)-1, 18))
			if k%5 == 4 { // a dense set split into S and ext
				T := denseIn(rng, sub, pool, min(len(pool), ns+1+rng.Intn(5)))
				rng.Shuffle(len(T), func(i, j int) { T[i], T[j] = T[j], T[i] })
				S := slices.Clone(T[:ns])
				slices.Sort(S)
				out = append(out, roundInput{kind, sub, S, T[ns:], par})
				continue
			}
			var S []uint32
			if rng.Intn(3) == 0 {
				S = slices.Clone(pool[:0])
				for _, i := range rng.Perm(len(pool))[:ns] {
					S = append(S, pool[i])
				}
				slices.Sort(S)
			} else {
				S = denseIn(rng, sub, pool, ns)
			}
			if rng.Intn(2) == 0 {
				// Members 64 apart share a bit position in different
				// words: a one-word mask on a wider Sub confuses them.
				for _, v := range S[:min(len(S), 3)] {
					_, inPool := slices.BinarySearch(pool, v^64)
					if _, inS := slices.BinarySearch(S, v^64); inPool && !inS {
						S = insertSortedInto(nil, S, v^64)
					}
				}
			}
			var ext []uint32
			few := 1 + rng.Intn(5)
			for _, i := range rng.Perm(len(pool)) {
				u := pool[i]
				if _, in := slices.BinarySearch(S, u); in {
					continue
				}
				switch k % 4 {
				case 0: // all the rest
				case 1: // a random part
					if rng.Intn(3) == 0 {
						continue
					}
				case 2: // within two hops of every member of S
					near := true
					for _, v := range S {
						near = near && (bitset.TestBit(rowOf(sub, v), int(u)) || sharesNeighbour(sub, u, v))
					}
					if !near {
						continue
					}
				case 3: // a few
					if len(ext) == few {
						continue
					}
				}
				ext = append(ext, u)
			}
			if len(ext) > 0 {
				out = append(out, roundInput{kind, sub, S, ext, par})
			}
		}
	}
	params := func() Params {
		return Params{Gamma: [...]float64{0.5, 0.6, 2.0 / 3, 0.75, 0.8, 0.9, 0.95, 1.0}[rng.Intn(8)], MinSize: 2 + rng.Intn(4)}
	}
	for trial := 0; trial < 240; trial++ {
		wide := trial % 2
		n := [2]int{2 + rng.Intn(63), 65 + rng.Intn(136)}[wide]
		var g *graph.Graph
		if trial%3 == 0 {
			g = randomGraph(int64(trial), n, 0.2+0.75*rng.Float64())
		} else {
			g = plantedGraph(rng, n, 0.1+0.2*rng.Float64(), 1+rng.Intn(3), min(n, 8+rng.Intn(20)), 0.8+0.2*rng.Float64())
		}
		sub, _, _ := allVertexSub(g)
		pool := make([]uint32, n)
		for i := range pool {
			pool[i] = uint32(i)
		}
		draw([2]string{"one-word", "multi-word"}[wide], sub, pool, params())
	}
	for seed := int64(0); seed < 24; seed++ {
		n := [2]int{20 + rng.Intn(44), 65 + rng.Intn(60)}[seed%2]
		g := plantedGraph(rng, n, 0.15, 3, 12+rng.Intn(8), 0.9)
		par := Params{Gamma: 0.6 + 0.1*float64(rng.Intn(4)), MinSize: 4 + rng.Intn(3)}
		parent, S, ext := allVertexSub(g)
		m := NewPooledMiner(par, Options{})
		m.Reset(parent)
		m.Emit = func([]uint32) {}
		calls, kept := 0, 0
		m.TimedOut = func() bool { calls++; return calls%3 == 0 }
		m.Abort = func() bool { return kept == 12 }
		m.Offload = func(S, ext []uint32) {
			if kept == 12 {
				return
			}
			kept++
			child, s2, e2 := m.Subtask(S, ext)
			if child.N() == len(s2)+len(e2) {
				return // no witness rows
			}
			out = append(out, roundInput{"subtask", child, slices.Clone(s2), slices.Clone(e2), par})
			pool := append(slices.Clone(s2), e2...)
			slices.Sort(pool)
			if len(pool) > 1 {
				draw("subtask", child, pool, par)
			}
		}
		m.RecursiveMine(S, ext)
	}
	// The nodes searches expand, breadth first: every other node is
	// offloaded as a subtask, witness rows included, and the subtasks
	// are mined in turn, so nodes of every depth are offloaded. Each
	// becomes an input as it stands (bounding left it open) and through
	// one of its children before bounding.
	type node struct {
		sub    *Sub
		S, ext []uint32
	}
	for seed := int64(0); seed < 16; seed++ {
		n := [2]int{20 + rng.Intn(44), 65 + rng.Intn(100)}[seed%2]
		g := plantedGraph(rng, n, 0.15, 3, 12+rng.Intn(8), 0.9)
		par := Params{Gamma: 0.6 + 0.1*float64(rng.Intn(4)), MinSize: 3 + rng.Intn(3)}
		root, S, ext := allVertexSub(g)
		queue := []node{{root, S, ext}}
		m := NewPooledMiner(par, Options{})
		m.Emit = func([]uint32) {}
		calls := 0
		m.TimedOut = func() bool { calls++; return calls%2 == 0 }
		m.Abort = func() bool { return len(queue) > 40 }
		m.Offload = func(S, ext []uint32) {
			child, s2, e2 := m.Subtask(S, ext)
			s2, e2 = slices.Clone(s2), slices.Clone(e2)
			queue = append(queue, node{child, s2, e2})
			out = append(out, roundInput{"search", child, s2, e2, par})
			i := rng.Intn(len(e2))
			v := e2[i]
			var near []uint32
			for _, u := range e2[i+1:] {
				if bitset.TestBit(rowOf(child, v), int(u)) || sharesNeighbour(child, u, v) {
					near = append(near, u)
				}
			}
			if len(near) > 0 {
				out = append(out, roundInput{"search", child, insertSortedInto(nil, s2, v), near, par})
			}
		}
		for taken := 0; len(queue) > 0 && taken < 40; taken++ {
			nd := queue[0]
			queue = queue[1:]
			m.Reset(nd.sub)
			m.RecursiveMine(slices.Clone(nd.S), slices.Clone(nd.ext))
		}
	}
	return out
}

// rowOf returns v's adjacency row of sub as bits.
func rowOf(sub *Sub, v uint32) []uint64 {
	row := make([]uint64, bitset.WordsFor(sub.N()))
	if sub.Rows != nil {
		stride := len(sub.Rows) / sub.N()
		copy(row, sub.Rows[int(v)*stride:int(v+1)*stride])
		return row
	}
	for _, u := range sub.Adj[v] {
		bitset.SetBit(row, int(u))
	}
	return row
}

// sharesNeighbour reports whether u and v have a common neighbour.
func sharesNeighbour(sub *Sub, u, v uint32) bool {
	return bitset.AndCount(rowOf(sub, u), rowOf(sub, v)) > 0
}

// denseIn grows a sorted set of k members of pool from a random one,
// adding each time one of the three outside members with the most
// neighbours in it.
func denseIn(rng *rand.Rand, sub *Sub, pool []uint32, k int) []uint32 {
	T := []uint32{pool[rng.Intn(len(pool))]}
	for len(T) < k {
		type cand struct {
			u uint32
			d int
		}
		var out []cand
		for _, u := range pool {
			if _, in := slices.BinarySearch(T, u); in {
				continue
			}
			d, ru := 0, rowOf(sub, u)
			for _, v := range T {
				if bitset.TestBit(ru, int(v)) {
					d++
				}
			}
			out = append(out, cand{u, d})
		}
		slices.SortStableFunc(out, func(a, b cand) int { return b.d - a.d })
		T = insertSortedInto(nil, T, out[rng.Intn(min(3, len(out)))].u)
	}
	return T
}

// TestBoundingRoundLazyExact holds iterativeBounding, which stages S
// first and stops at Eq (3) or Eq (7), to the eager reference
// (eagerBounding), which stages S ∪ ext and every rule's input each
// round. On every input both must return the same pruned, found, S and
// ext (in order), make the same emissions, and, when the node stays
// open, leave mine the same rows and degrees and the same cover search.
// Each rule that can end a round must end one on some input, on Subs
// of one word and of more, and critical moves must happen. Under the
// default options no round may end at a Type II rule (Theorems 4, 6,
// 8): an earlier exit implies each of them (see iterativeBounding).
func TestBoundingRoundLazyExact(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	inputs := roundInputs(rng)
	exits := map[string]map[string]int{}
	moves, covers := 0, map[string]int{}
	var emitted int
	var got, want [][]uint32
	eager, lazy := NewPooledMiner(Params{}, Options{}), NewPooledMiner(Params{}, Options{})
	eager.Emit = func(T []uint32) { want = append(want, slices.Clone(T)) }
	lazy.Emit = func(T []uint32) { got = append(got, slices.Clone(T)) }
	for i, in := range inputs {
		for _, opt := range []Options{{}, {DisableUpperBound: true}, {DisableLowerBound: true, DisableCriticalVertex: true}, {DisableDegreePruning: true}} {
			got, want = got[:0], want[:0]
			eager.Par, eager.Opt, lazy.Par, lazy.Opt = in.par, opt, in.par, opt
			eager.Reset(in.sub)
			lazy.Reset(in.sub)
			wp, wf, wS, wExt, exit, mv := eagerBounding(eager, slices.Clone(in.S), slices.Clone(in.ext))
			lazy.loadRows(in.S, in.ext)
			gp, gf, gS, gExt := lazy.iterativeBounding(slices.Clone(in.S), slices.Clone(in.ext))
			fail := func(format string, args ...any) {
				t.Helper()
				t.Fatalf("input %d (%s, n=%d γ=%v τ=%d %+v S=%v ext=%v, eager exit %s): %s", i, in.kind, in.sub.N(),
					in.par.Gamma, in.par.MinSize, opt, in.S, in.ext, exit, fmt.Sprintf(format, args...))
			}
			if gp != wp || gf != wf || !slices.Equal(gS, wS) || !slices.Equal(gExt, wExt) {
				fail("lazy (pruned %v found %v S %v ext %v), eager (pruned %v found %v S %v ext %v)", gp, gf, gS, gExt, wp, wf, wS, wExt)
			}
			if len(got) != len(want) {
				fail("lazy emitted %v, eager %v", got, want)
			}
			for j := range got {
				if !slices.Equal(got[j], want[j]) {
					fail("emission %d: lazy %v, eager %v", j, got[j], want[j])
				}
			}
			emitted += len(got)
			if opt == (Options{}) {
				width := [2]string{"one-word", "multi-word"}[min(1, bitset.WordsFor(in.sub.N())-1)]
				if exits[width] == nil {
					exits[width] = map[string]int{}
				}
				exits[width][exit]++
				switch exit {
				case "thm4i", "thm4ii", "thm6", "thm8":
					fail("a round under the default options ended at Type II")
				}
				if exit == "eq3" && wf {
					exits[width]["eq3, G(S) found"]++
				}
				moves += mv
			}
			if gp {
				continue
			}
			// The node mine enters: rows, degrees and the cover search.
			rows := make([]uint64, len(lazy.sBits))
			if bitset.FillBits(rows, gS); !slices.Equal(lazy.sBits, rows) {
				fail("sBits %x, want S %v", lazy.sBits, gS)
			}
			if bitset.FillBits(rows, gExt); !slices.Equal(lazy.eBits, rows) {
				fail("eBits %x, want ext %v", lazy.eBits, gExt)
			}
			for _, v := range gS {
				if lazy.dS[v] != eager.dS[v] || lazy.dE[v] != eager.dE[v] {
					fail("S member %d: lazy dS %d dE %d, eager %d %d", v, lazy.dS[v], lazy.dE[v], eager.dS[v], eager.dE[v])
				}
			}
			for _, u := range gExt {
				if lazy.dS[u] != eager.dS[u] {
					fail("ext member %d: lazy dS %d, eager %d", u, lazy.dS[u], eager.dS[u])
				}
			}
			cExt, cLen := lazy.applyCover(gS, slices.Clone(gExt))
			rExt, rLen := coverRef(eager, wS, slices.Clone(wExt))
			if cLen != rLen || !slices.Equal(cExt, rExt) {
				fail("cover: lazy %v (tail %d), reference %v (tail %d)", cExt, cLen, rExt, rLen)
			}
			if cLen > 0 {
				covers[in.kind]++
			}
		}
	}
	for _, width := range []string{"one-word", "multi-word"} {
		for _, exit := range []string{"eq3", "eq3, G(S) found", "eq4", "eq7", "eq8", "ub<lb", "crit-empty", "typeI-empty", "open"} {
			if exits[width][exit] == 0 {
				t.Errorf("%s Subs: no round ended at %s (%v)", width, exit, exits[width])
			}
		}
	}
	if moves == 0 {
		t.Error("no critical move")
	}
	t.Logf("%d inputs, %d emissions, %d critical moves, covers %v; exits %v", len(inputs), emitted, moves, covers, exits)
}

// TestEq7Monotone: ⌈γ(k+1)⌉ ≤ ⌈γk⌉ + 1 by CeilMul for every k up to
// the largest matrix over a grid of γ ∈ [0.5, 1] — so ⌈γ(|S|+t−1)⌉ − t
// never rises with t, and the S pass may test Eq (7) at t = |ext| alone.
func TestEq7Monotone(t *testing.T) {
	for i := 0; i <= 500; i++ {
		gamma := 0.5 + float64(i)/1000
		for _, g := range []float64{gamma, math.Nextafter(gamma, 0), math.Nextafter(gamma, 1)} {
			if g < 0.5 || g > 1 {
				continue
			}
			for k := 0; k < 1024; k++ {
				if a, b := CeilMul(g, k), CeilMul(g, k+1); b > a+1 || b < a {
					t.Fatalf("γ=%v: CeilMul(%d) = %d, CeilMul(%d) = %d", g, k, a, k+1, b)
				}
			}
		}
	}
}

// TestRecursiveMineTreesPinned pins the search trees of
// BenchmarkRecursiveMine's tasks, so a change to the tree fails here
// and not only in a benchmark run.
func TestRecursiveMineTreesPinned(t *testing.T) {
	want := map[string]int64{"1word": 295189, "3word": 7797}
	for _, tk := range benchTasks(t) {
		m := NewPooledMiner(tk.par, Options{})
		m.Emit = func([]uint32) {}
		m.Reset(tk.sub)
		m.RecursiveMine(tk.S, slices.Clone(tk.ext))
		if m.Nodes != want[tk.name] {
			t.Errorf("%s: %d nodes, want %d", tk.name, m.Nodes, want[tk.name])
		}
	}
}
