package vset

import (
	"sort"
	"testing"
	"testing/quick"
)

func TestIsSorted(t *testing.T) {
	if !IsSorted([]uint32{1, 2, 9}) || !IsSorted(nil) || !IsSorted([]uint32{4}) {
		t.Error("IsSorted false negatives")
	}
	if IsSorted([]uint32{1, 1}) || IsSorted([]uint32{2, 1}) {
		t.Error("IsSorted false positives")
	}
}

func TestContains(t *testing.T) {
	xs := []uint32{2, 4, 8, 16}
	for _, x := range xs {
		if !Contains(xs, x) {
			t.Errorf("Contains(%d) = false", x)
		}
	}
	for _, x := range []uint32{0, 3, 17} {
		if Contains(xs, x) {
			t.Errorf("Contains(%d) = true", x)
		}
	}
	if Contains(nil, 1) {
		t.Error("Contains on nil slice")
	}
}

func TestIntersectCountUnion(t *testing.T) {
	a := []uint32{1, 3, 5, 7, 9}
	b := []uint32{3, 4, 5, 10}
	if got := IntersectCount(a, b); got != 2 {
		t.Errorf("IntersectCount = %d", got)
	}
	if got := Union(nil, a, b); !Equal(got, []uint32{1, 3, 4, 5, 7, 9, 10}) {
		t.Errorf("Union = %v", got)
	}
	if got := Union([]uint32{42}, []uint32{1}, []uint32{2}); !Equal(got, []uint32{42, 1, 2}) {
		t.Errorf("Union with dst = %v", got)
	}
}

func TestFilterGreater(t *testing.T) {
	xs := []uint32{1, 5, 9, 12}
	if got := FilterGreater(nil, xs, 5); !Equal(got, []uint32{9, 12}) {
		t.Fatalf("FilterGreater = %v", got)
	}
	if got := FilterGreater(nil, xs, 0); !Equal(got, xs) {
		t.Fatalf("FilterGreater(0) = %v", got)
	}
	if got := FilterGreater(nil, xs, 12); len(got) != 0 {
		t.Fatalf("FilterGreater(max) = %v", got)
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
		var wantU []uint32
		seen := map[uint32]bool{}
		for _, x := range append(append([]uint32{}, a...), b...) {
			seen[x] = true
		}
		for k := range seen {
			wantU = append(wantU, k)
		}
		sort.Slice(wantU, func(i, j int) bool { return wantU[i] < wantU[j] })
		return Equal(Union(nil, a, b), wantU) && IntersectCount(a, b) == wantI
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: |A∪B| = |A| + |B| - |A∩B|.
func TestQuickInclusionExclusion(t *testing.T) {
	f := func(ra, rb []uint16) bool {
		a, b := mkSorted(ra), mkSorted(rb)
		u := Union(nil, a, b)
		return len(u) == len(a)+len(b)-IntersectCount(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
