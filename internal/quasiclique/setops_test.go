package quasiclique

import (
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestIntersectCount(t *testing.T) {
	a := []uint32{1, 3, 5, 7, 9}
	b := []uint32{3, 4, 5, 10}
	if got := intersectCount(a, b); got != 2 {
		t.Errorf("intersectCount = %d", got)
	}
	if got := intersectCount(a, nil); got != 0 {
		t.Errorf("intersectCount with an empty set = %d", got)
	}
}

// mkSorted converts arbitrary fuzz input into a sorted duplicate-free
// slice over a small universe so intersections are non-trivial.
func mkSorted(raw []uint16) []uint32 {
	m := map[uint32]bool{}
	for _, x := range raw {
		m[uint32(x)%512] = true
	}
	out := make([]uint32, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestQuickAlgebraAgainstMaps(t *testing.T) {
	f := func(ra, rb []uint16) bool {
		a, b := mkSorted(ra), mkSorted(rb)
		ma := map[uint32]bool{}
		for _, x := range a {
			ma[x] = true
		}
		wantI := 0
		for _, x := range b {
			if ma[x] {
				wantI++
			}
		}
		return intersectCount(a, b) == wantI
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: |A∪B| = |A| + |B| - |A∩B|.
func TestQuickInclusionExclusion(t *testing.T) {
	f := func(ra, rb []uint16) bool {
		a, b := mkSorted(ra), mkSorted(rb)
		u := map[uint32]bool{}
		for _, x := range append(slices.Clone(a), b...) {
			u[x] = true
		}
		return len(u) == len(a)+len(b)-intersectCount(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
