package quasiclique

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"gthinkerqc/internal/graph"
)

// mkMinerState builds a Miner over a random graph with a random
// disjoint (S, ext) split and stages the round eagerly (stageEager):
// every value computeUpper and computeLower read, however the S pass of
// iterativeBounding would have ended.
func mkMinerState(t *testing.T, seed int64, gamma float64) (*Miner, []uint32, []uint32, staged) {
	return mkMinerStateP(t, seed, gamma, 0.5)
}

func mkMinerStateP(t *testing.T, seed int64, gamma, p float64) (*Miner, []uint32, []uint32, staged) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := 4 + rng.Intn(9)
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				b.AddEdge(graph.V(i), graph.V(j))
			}
		}
	}
	g := b.MustBuild()
	all := make([]graph.V, n)
	for i := range all {
		all[i] = graph.V(i)
	}
	sub := SubFromGraph(g, all)
	perm := rng.Perm(n)
	sLen := 1 + rng.Intn(3)
	extLen := rng.Intn(n - sLen)
	var S, ext []uint32
	for _, p := range perm[:sLen] {
		S = append(S, uint32(p))
	}
	for _, p := range perm[sLen : sLen+extLen] {
		ext = append(ext, uint32(p))
	}
	m := NewPooledMiner(Params{Gamma: gamma, MinSize: 2}, Options{})
	m.Reset(sub)
	m.Emit = func([]uint32) {}
	return m, S, ext, stageEager(m, S, ext).staged
}

// validExtensionSizes brute-forces every Z ⊆ ext and returns the sizes
// |Z| for which S ∪ Z satisfies the quasi-clique degree condition
// (γ ≥ 0.5, so degrees imply connectivity).
func validExtensionSizes(m *Miner, S, ext []uint32) map[int]bool {
	sizes := map[int]bool{}
	n := len(ext)
	for mask := 0; mask < 1<<uint(n); mask++ {
		Z := append([]uint32{}, S...)
		cnt := 0
		for i := 0; i < n; i++ {
			if mask&(1<<uint(i)) != 0 {
				Z = append(Z, ext[i])
				cnt++
			}
		}
		if m.isQC(Z) {
			sizes[cnt] = true
		}
	}
	return sizes
}

// TestUpperBoundSoundness: U_S (Eq 4) must upper-bound |Z| for every
// valid extension Z ⊆ ext; when the computation prunes, no non-empty
// valid extension may exist.
func TestUpperBoundSoundness(t *testing.T) {
	for _, gamma := range []float64{0.5, 0.6, 0.75, 0.9, 1.0} {
		for seed := int64(0); seed < 120; seed++ {
			m, S, ext, st := mkMinerState(t, seed, gamma)
			if len(ext) == 0 {
				continue
			}
			ub := m.computeUpper(&st)
			sizes := validExtensionSizes(m, S, ext)
			maxValid := -1
			for s := range sizes {
				if s > 0 && s > maxValid {
					maxValid = s
				}
			}
			if ub.prune {
				if maxValid > 0 {
					t.Fatalf("γ=%v seed=%d: U_S pruned but extension of size %d is valid (S=%v ext=%v)",
						gamma, seed, maxValid, S, ext)
				}
				continue
			}
			if maxValid > ub.value {
				t.Fatalf("γ=%v seed=%d: U_S=%d but valid extension of size %d exists (S=%v ext=%v)",
					gamma, seed, ub.value, maxValid, S, ext)
			}
		}
	}
}

// TestLowerBoundSoundness: L_S (Eq 8) must lower-bound |Z| for every
// valid extension, the empty one included: a prune asserts that S
// itself is not a valid quasi-clique either.
func TestLowerBoundSoundness(t *testing.T) {
	for _, gamma := range []float64{0.5, 0.6, 0.75, 0.9, 1.0} {
		for seed := int64(0); seed < 120; seed++ {
			m, S, ext, st := mkMinerState(t, seed, gamma)
			if len(ext) == 0 {
				continue
			}
			lb := m.computeLower(&st)
			sizes := validExtensionSizes(m, S, ext)
			minValid := -1
			for s := range sizes {
				if minValid == -1 || s < minValid {
					minValid = s
				}
			}
			if lb.prune {
				if minValid >= 0 {
					t.Fatalf("γ=%v seed=%d: L_S pruned but extension of size %d is valid (S=%v ext=%v)",
						gamma, seed, minValid, S, ext)
				}
				continue
			}
			// Any valid extension (including the empty one, making S
			// itself valid) must have size ≥ L_S.
			if minValid >= 0 && minValid < lb.value {
				t.Fatalf("γ=%v seed=%d: L_S=%d but valid extension of size %d exists (S=%v ext=%v)",
					gamma, seed, lb.value, minValid, S, ext)
			}
		}
	}
}

// TestBoundsAgreeOnContradiction checks the relationship between the
// two bounds. Because prefix[t] (sum of the top-t ext degrees toward
// S) is concave in t while the requirement |S|·⌈γ(|S|+t−1)⌉ grows
// (weakly) linearly, the feasible set of Lemma 2's sum condition is an
// interval — verified here by brute force. Consequently U_S < L_S
// (Algorithm 1's "prune S and its extensions" shortcut) can only occur
// when the interval straddles a gap between U_S^min and L_S^min, and
// whenever both bounds exist, no valid extension may violate either.
func TestBoundsAgreeOnContradiction(t *testing.T) {
	hits := 0
	for seed := int64(0); seed < 400; seed++ {
		m, S, ext, st := mkMinerStateP(t, seed, 0.95, 0.3)
		if len(ext) == 0 {
			continue
		}
		gamma := m.Par.Gamma
		// Feasibility of the sum condition must form an interval.
		prefix := m.prefix // staged by mkMinerStateP
		feasible := make([]bool, len(ext)+1)
		first, last := -1, -1
		for tt := 0; tt <= len(ext); tt++ {
			feasible[tt] = st.sumS+prefix[tt] >= len(S)*CeilMul(gamma, len(S)+tt-1)
			if feasible[tt] {
				if first == -1 {
					first = tt
				}
				last = tt
			}
		}
		for tt := first; first >= 0 && tt <= last; tt++ {
			if !feasible[tt] {
				t.Fatalf("seed=%d: sum-condition feasible set not an interval: %v", seed, feasible)
			}
		}
		ub := m.computeUpper(&st)
		lb := m.computeLower(&st)
		if ub.have && lb.have && ub.value < lb.value {
			hits++
			if len(validExtensionSizes(m, S, ext)) != 0 {
				t.Fatalf("seed=%d: U_S=%d < L_S=%d but valid extensions exist",
					seed, ub.value, lb.value)
			}
		}
	}
	t.Logf("interval property verified on 400 states; U_S < L_S fired on %d", hits)
}

// TestCoverVertexTheorem: for the cover set C_S(u) chosen by
// applyCover, every quasi-clique Q = S ∪ V′ with V′ ⊆ C_S(u) must stay
// a quasi-clique after adding u (P7's proof obligation) — so pruning
// those V′ loses only non-maximal results.
func TestCoverVertexTheorem(t *testing.T) {
	covered := 0
	for seed := int64(1000); seed < 1400; seed++ {
		m, S, ext, _ := mkMinerState(t, seed, 0.6)
		if len(ext) == 0 {
			continue
		}
		reordered, coverLen := m.applyCover(S, ext)
		if coverLen == 0 {
			continue
		}
		covered++
		cover := reordered[len(reordered)-coverLen:]
		// Identify the cover vertex: it is some u ∈ ext \ cover with
		// C_S(u) = cover; we don't know which one applyCover chose,
		// so check the theorem for the cover set against every
		// candidate u and require at least one to satisfy it — and
		// verify the pruning consequence directly: for each V′ ⊆
		// cover with S∪V′ a QC, some u outside V′ extends it.
		n := len(cover)
		for mask := 1; mask < 1<<uint(n); mask++ {
			var V []uint32
			for i := 0; i < n; i++ {
				if mask&(1<<uint(i)) != 0 {
					V = append(V, cover[i])
				}
			}
			Q := append(append([]uint32{}, S...), V...)
			if !m.isQC(Q) {
				continue
			}
			extendable := false
			for _, u := range reordered[:len(reordered)-coverLen] {
				if m.isQC(append(append([]uint32{}, Q...), u)) {
					extendable = true
					break
				}
			}
			if !extendable {
				t.Fatalf("seed=%d: S=%v V'=%v ⊆ cover %v is a maximal-within-task QC — cover pruning would lose it",
					seed, S, V, cover)
			}
		}
	}
	if covered == 0 {
		t.Fatal("cover-vertex pruning never applied across 400 states")
	}
	t.Logf("cover-vertex pruning exercised on %d/400 states", covered)
}

// TestIterativeBoundingContract checks Algorithm 1's documented
// contract: pruned=false implies non-empty ext, and every vertex it
// removes from ext is Type-I-prunable (cannot appear in any valid
// extension of S).
func TestIterativeBoundingContract(t *testing.T) {
	for seed := int64(2000); seed < 2300; seed++ {
		m, S, ext, _ := mkMinerState(t, seed, 0.7)
		if len(ext) == 0 {
			continue
		}
		orig := append([]uint32{}, ext...)
		validBefore := map[uint32]bool{}
		// For each u, is there a valid extension of S containing u?
		for _, u := range orig {
			rest := make([]uint32, 0, len(orig)-1)
			for _, x := range orig {
				if x != u {
					rest = append(rest, x)
				}
			}
			// Brute force: any Z ⊆ rest with S∪{u}∪Z valid?
			for mask := 0; mask < 1<<uint(len(rest)); mask++ {
				Q := append(append([]uint32{}, S...), u)
				for i := range rest {
					if mask&(1<<uint(i)) != 0 {
						Q = append(Q, rest[i])
					}
				}
				if m.isQC(Q) && len(Q) >= m.Par.MinSize {
					validBefore[u] = true
					break
				}
			}
		}
		pruned, _, S2, ext2 := m.iterativeBounding(append([]uint32{}, S...), ext)
		if pruned {
			continue
		}
		if len(ext2) == 0 {
			t.Fatalf("seed=%d: pruned=false with empty ext", seed)
		}
		// Vertices surviving in ext2 ∪ S2 must include every u that
		// had a valid extension (bounding must not over-prune).
		kept := map[uint32]bool{}
		for _, u := range ext2 {
			kept[u] = true
		}
		for _, u := range S2 {
			kept[u] = true
		}
		for u, ok := range validBefore {
			if ok && !kept[u] {
				t.Fatalf("seed=%d: bounding pruned %d which appears in a valid quasi-clique (S=%v ext=%v)",
					seed, u, S, orig)
			}
		}
	}
}

// TestThresholdTables: the miner's threshold tables agree with CeilMul
// and FloorDiv at every index up to the largest matrix a miner builds,
// and θU[k] is the least d with FloorDiv(d) ≥ k (so the S pass's Eq (3)
// test is U_S^min < 1 exactly), for each γ in turn on one pooled miner
// — so a γ change between Resets refills them.
func TestThresholdTables(t *testing.T) {
	const n = 1024
	sub := &Sub{Label: make([]graph.V, n), Adj: make([][]uint32, n)}
	m := NewPooledMiner(Params{MinSize: 2}, Options{})
	for _, gamma := range []float64{0.5, 0.55, 0.6, 2.0 / 3, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95, 0.99, 1.0} {
		m.Par.Gamma = gamma
		m.Reset(sub)
		for k := 0; k <= n; k++ {
			want := 0
			for want <= n && FloorDiv(want, gamma) < k {
				want++
			}
			if m.thetaU[k] != want {
				t.Fatalf("γ=%v: θU[%d] = %d, least d with FloorDiv(d) ≥ %d is %d", gamma, k, m.thetaU[k], k, want)
			}
			if got, want := m.ceilMul[k], CeilMul(gamma, k); got != want {
				t.Fatalf("γ=%v: ceilMul[%d] = %d, CeilMul = %d", gamma, k, got, want)
			}
			if got, want := m.floorDiv[k], FloorDiv(k, gamma); got != want {
				t.Fatalf("γ=%v: floorDiv[%d] = %d, FloorDiv = %d", gamma, k, got, want)
			}
		}
	}
}

// sortedPrefix is prefixByDegree's oracle: ext's dS values sorted
// non-increasing, then summed.
func sortedPrefix(dS []int32, ext []uint32) []int {
	d := make([]int, len(ext))
	for i, u := range ext {
		d[i] = int(dS[u])
	}
	sort.Sort(sort.Reverse(sort.IntSlice(d)))
	prefix := make([]int, len(ext)+1)
	for i, x := range d {
		prefix[i+1] = prefix[i] + x
	}
	return prefix
}

// TestPrefixByDegreeCounting: the counting-pass prefix over the
// occupied degree band equals the sort-based one on random degrees
// toward S — ties, zeros, a narrow band of one or two values well above
// zero, and an empty ext included.
func TestPrefixByDegreeCounting(t *testing.T) {
	const n = 130 // three words
	rng := rand.New(rand.NewSource(5))
	m := NewPooledMiner(Params{Gamma: 0.8, MinSize: 2}, Options{})
	m.Reset(&Sub{Label: make([]graph.V, n), Adj: make([][]uint32, n)})
	for trial := 0; trial < 3000; trial++ {
		perm := rng.Perm(n)
		sLen := 1 + rng.Intn(n-1)
		ext := make([]uint32, rng.Intn(n-sLen+1))
		for i := range ext {
			ext[i] = uint32(perm[sLen+i])
		}
		narrow := trial%2 == 0
		base := rng.Intn(sLen)    // a narrow band's floor
		top := rng.Intn(sLen + 1) // few distinct values when small
		lo, hi := sLen, 0         // what stageExt passes for an empty ext
		for _, u := range ext {
			switch {
			case narrow:
				m.dS[u] = int32(min(base+rng.Intn(2), sLen))
			case rng.Intn(4) > 0:
				m.dS[u] = int32(rng.Intn(top + 1))
			default:
				m.dS[u] = 0
			}
			lo, hi = min(lo, int(m.dS[u])), max(hi, int(m.dS[u]))
		}
		got := m.prefixByDegree(ext, lo, hi)
		if want := sortedPrefix(m.dS, ext); !slices.Equal(got, want) {
			t.Fatalf("trial %d (|S|=%d, band [%d, %d]): counting %v, sorted %v", trial, sLen, lo, hi, got, want)
		}
	}
	if got := m.prefixByDegree(nil, 7, 0); !slices.Equal(got, []int{0}) {
		t.Fatalf("empty ext: prefix %v, want [0]", got)
	}
}

// TestStagedRoundMatchesBruteForce checks a round's staging that no
// test stops — the S pass (stageS), the ext pass (stageExt) and the
// Theorem 4 pass (theorem4) — against the same values recounted from
// the Sub's adjacency lists: dS and dE of every staged vertex, Σ dS,
// min dS and min(dS+dE) over S, the Theorem 4 flags and the degree
// prefix, on Subs of one, two and three words, with ext of any size,
// empty included. It also holds the staged emission threshold (min dS
// against ⌈γ(|S|−1)⌉, stagedQC) to isQC, apart from the emission screen
// that follows it (TestEmissionScreenExact holds that one).
func TestStagedRoundMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := NewPooledMiner(Params{MinSize: 1}, Options{})
	flags := [2]int{}
	for trial := 0; trial < 900; trial++ {
		n := [...]int{2 + rng.Intn(40), 65 + rng.Intn(20), 129 + rng.Intn(40)}[trial%3]
		gamma := 0.5 + 0.5*rng.Float64()
		m.Par.Gamma = gamma
		sub, _, _ := allVertexSub(randomGraph(int64(trial), n, 0.2+0.75*rng.Float64()))
		m.Reset(sub)
		perm := rng.Perm(n)
		ns := 1 + rng.Intn(min(n, 24))
		ne := rng.Intn(n - ns + 1)
		S, ext := make([]uint32, ns), make([]uint32, ne)
		inS, inE := make([]bool, n), make([]bool, n)
		for i := range S {
			S[i] = uint32(perm[i])
			inS[S[i]] = true
		}
		for i := range ext {
			ext[i] = uint32(perm[ns+i])
			inE[ext[i]] = true
		}
		slices.Sort(S)
		m.loadRows(S, ext)
		st, cut := m.stageS(S, 0, 0)
		if cut != cutNone {
			t.Fatalf("trial %d: the S pass stopped (%d) with its tests off", trial, cut)
		}
		st.nExt = ne
		m.stageExt(ext, ns)
		thm4i, thm4ii := m.theorem4(S)

		count := func(v uint32, in []bool) int {
			c := 0
			for _, u := range sub.Adj[v] {
				if in[u] {
					c++
				}
			}
			return c
		}
		want := staged{nS: ns, nExt: ne, minDS: math.MaxInt, minDSE: math.MaxInt}
		var want4i, want4ii bool
		for _, v := range S {
			a, b := count(v, inS), count(v, inE)
			if int(m.dS[v]) != a || int(m.dE[v]) != b {
				t.Fatalf("trial %d: S member %d staged dS=%d dE=%d, recount %d %d", trial, v, m.dS[v], m.dE[v], a, b)
			}
			want.sumS += a
			want.minDS, want.minDSE = min(want.minDS, a), min(want.minDSE, a+b)
			if a+b < CeilMul(gamma, ns-1+b) {
				want4ii = true
			}
			if b == 0 && a < CeilMul(gamma, ns) {
				want4i = true
			}
		}
		for _, u := range ext {
			a := count(u, inS)
			if int(m.dS[u]) != a {
				t.Fatalf("trial %d: ext member %d staged dS=%d, recount %d", trial, u, m.dS[u], a)
			}
		}
		if st != want || thm4i != want4i || thm4ii != want4ii {
			t.Fatalf("trial %d (n=%d γ=%v |S|=%d |ext|=%d): staged %+v, Theorem 4 %v %v; recount %+v, %v %v",
				trial, n, gamma, ns, ne, st, thm4i, thm4ii, want, want4i, want4ii)
		}
		if !slices.Equal(m.prefix, sortedPrefix(m.dS, ext)) {
			t.Fatalf("trial %d: staged prefix %v, sorted %v", trial, m.prefix, sortedPrefix(m.dS, ext))
		}
		if staged, qc := m.stagedQC(S, &st), m.isQC(S); staged != qc {
			t.Fatalf("trial %d: staged emission check %v, isQC %v (S=%v)", trial, staged, qc, S)
		}
		if thm4i {
			flags[0]++
		}
		if thm4ii {
			flags[1]++
		}
	}
	if flags[0] == 0 || flags[1] == 0 {
		t.Fatalf("Theorem 4 flags never both raised: (i) %d, (ii) %d times", flags[0], flags[1])
	}
}
