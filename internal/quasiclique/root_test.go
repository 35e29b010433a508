package quasiclique

import (
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"gthinkerqc/internal/bitset"
	"gthinkerqc/internal/graph"
)

// rootListReference is the list construction RootSub replaces up to
// matrixCap: Induce over members, then PeelKCoreScratch, with nil when
// the peel drops the root.
func rootListReference(members []graph.V, n int, row func(i int) []uint32, k int) *Sub {
	var sc Scratch
	_, adj := Induce(members, n, row, 0, 0, &sc)
	peeled, _ := (&Sub{Label: slices.Clone(members), Adj: adj}).PeelKCoreScratch(k, &sc)
	if peeled.N() == 0 || peeled.Label[0] != members[0] {
		return nil
	}
	return peeled
}

// TestRootRowsMatchList: on random graphs, RootSub gives the same root
// outcome, the same labels and the same adjacency as Induce followed by
// PeelKCoreScratch, with S = {0} and ext the rest. Member sets span one
// and several matrix words, some rows name vertices outside the member
// set, and k is drawn so that some roots are peeled; with the matrix
// cap lowered, the same inputs take the list fallback and agree too.
func TestRootRowsMatchList(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var sc Scratch
	kinds := map[string]int{}
	for round := 0; round < 300; round++ {
		n := 8 + rng.Intn(240)
		g := randomGraph(int64(round), n, 0.05+0.4*rng.Float64())
		// The root and a random subset of the larger IDs, so rows name
		// vertices outside the member set (and below the root).
		root := graph.V(rng.Intn(n / 2))
		members := []graph.V{root}
		for u := int(root) + 1; u < n; u++ {
			if rng.Intn(4) != 0 {
				members = append(members, graph.V(u))
			}
		}
		row := func(i int) []uint32 { return g.Adj(members[i]) }
		k := rng.Intn(12)
		want := rootListReference(members, n, row, k)
		caps := []int{matrixCap, len(members) - 1}
		for _, c := range caps {
			var sub *Sub
			var S, ext []uint32
			withMatrixCap(c, func() { sub, S, ext = RootSub(members, n, row, k, &sc) })
			if (sub == nil) != (want == nil) {
				t.Fatalf("round %d cap %d: root kept %t, list path %t", round, c, sub != nil, want != nil)
			}
			if sub == nil {
				kinds["peeled"]++
				continue
			}
			if !slices.Equal(sub.Label, want.Label) {
				t.Fatalf("round %d cap %d: labels %v, want %v", round, c, sub.Label, want.Label)
			}
			if !slices.Equal(S, []uint32{0}) || len(ext) != sub.N()-1 {
				t.Fatalf("round %d cap %d: S %v, %d ext for %d vertices", round, c, S, len(ext), sub.N())
			}
			for i, x := range ext {
				if x != uint32(i+1) {
					t.Fatalf("round %d cap %d: ext %v", round, c, ext)
				}
			}
			if c == matrixCap {
				if sub.Adj != nil {
					t.Fatalf("round %d: a root of %d members is a list Sub", round, len(members))
				}
				if err := rowsMatchAdj(sub.Rows, want.Adj); err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
				kinds[map[bool]string{true: "one word", false: "multi-word"}[sub.N() <= 64]]++
				continue
			}
			if sub.Rows != nil {
				t.Fatalf("round %d: a root above the cap is a rows Sub", round)
			}
			if err := diffSub(sub, want); err != nil {
				t.Fatalf("round %d fallback: %v", round, err)
			}
			kinds["fallback"]++
		}
	}
	for _, kind := range []string{"peeled", "one word", "multi-word", "fallback"} {
		if kinds[kind] == 0 {
			t.Errorf("no round gave a %s root: %v", kind, kinds)
		}
	}
}

// TestRootSubOwnsItsStorage: a root RootSub returned is intact after
// the scratch builds other roots.
func TestRootSubOwnsItsStorage(t *testing.T) {
	g := randomGraph(4, 150, 0.3)
	var sc Scratch
	all := allVerts(150)
	row := func(i int) []uint32 { return g.Adj(all[i]) }
	first, S, ext := RootSub(all, 150, row, 3, &sc)
	label, rows := slices.Clone(first.Label), slices.Clone(first.Rows)
	S0, ext0 := slices.Clone(S), slices.Clone(ext)
	for v := 1; v < 100; v += 7 {
		RootSub(all[v:], 150, func(i int) []uint32 { return g.Adj(all[v+i]) }, 5, &sc)
	}
	if !slices.Equal(first.Label, label) || !slices.Equal(first.Rows, rows) ||
		!slices.Equal(S, S0) || !slices.Equal(ext, ext0) {
		t.Fatal("a retained root changed when the scratch built later roots")
	}
}

// compactPerBit is the per-bit reference of compactor.row: every bit p
// of src ∩ filter ∩ keep goes to bit rank(p) of a fresh row.
func compactPerBit(keep, src, filter []uint64) []uint64 {
	pos, out := 0, make([]uint64, bitset.WordsFor(64*len(keep)))
	for p := 0; p < 64*len(keep); p++ {
		if !bitset.TestBit(keep, p) {
			continue
		}
		if bitset.TestBit(src, p) && bitset.TestBit(filter, p) {
			bitset.SetBit(out, pos)
		}
		pos++
	}
	return out[:bitset.WordsFor(pos)]
}

// randomMaskWord is empty, full, sparse or dense, at random.
func randomMaskWord(rng *rand.Rand) uint64 {
	switch rng.Intn(5) {
	case 0:
		return 0
	case 1:
		return ^uint64(0)
	case 2:
		return rng.Uint64() & rng.Uint64() & rng.Uint64()
	case 3:
		return rng.Uint64() | rng.Uint64()
	default:
		return rng.Uint64()
	}
}

// TestCompactorMatchesPerBit holds the word compaction to the per-bit
// reference on masks of 1–16 words mixing empty, full, sparse and dense
// words, with filters that are the mask itself or a subset of it (a
// subtask's K inside K ∪ witnesses, so mask bits outside the filter,
// like a witness's, are dropped), on rows of random bits and on the
// mask's own words.
func TestCompactorMatchesPerBit(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var c compactor
	for round := 0; round < 4000; round++ {
		stride := 1 + rng.Intn(16)
		keep, filter, src := make([]uint64, stride), make([]uint64, stride), make([]uint64, stride)
		members := 0
		for i := range keep {
			keep[i] = randomMaskWord(rng)
			members += bits.OnesCount64(keep[i])
			switch rng.Intn(3) {
			case 0:
				filter[i] = keep[i]
			case 1:
				filter[i] = keep[i] & rng.Uint64()
			default:
				filter[i] = ^uint64(0)
			}
			src[i] = randomMaskWord(rng)
		}
		if round%10 == 0 {
			copy(src, keep)
		}
		if got := c.init(keep); got != members {
			t.Fatalf("round %d: init counted %d members, want %d", round, got, members)
		}
		want := compactPerBit(keep, src, filter)
		got := make([]uint64, bitset.WordsFor(members))
		c.row(got, src, filter)
		if !slices.Equal(got, want) {
			t.Fatalf("round %d: keep %x filter %x src %x\n got  %x\n want %x", round, keep, filter, src, got, want)
		}
	}
}
