// Package vset provides kernels over sorted, duplicate-free uint32
// vertex-ID slices. These are the hot inner loops of both the graph
// substrate (adjacency lists are sorted) and the miner (ext(S) and
// neighborhood intersections).
package vset

import (
	"slices"
	"sort"
)

// Sort sorts xs in place in increasing order. It uses the stdlib
// generic sort, which allocates nothing (sort.Slice builds a reflect
// swapper per call — measurable in the per-task hot paths).
func Sort(xs []uint32) {
	slices.Sort(xs)
}

// IsSorted reports whether xs is sorted strictly increasing (sorted and
// duplicate-free).
func IsSorted(xs []uint32) bool {
	for i := 1; i < len(xs); i++ {
		if xs[i-1] >= xs[i] {
			return false
		}
	}
	return true
}

// Contains reports whether sorted xs contains x, by binary search.
func Contains(xs []uint32, x uint32) bool {
	i := sort.Search(len(xs), func(i int) bool { return xs[i] >= x })
	return i < len(xs) && xs[i] == x
}

// IntersectCount returns |a ∩ b| for sorted strictly increasing a, b.
func IntersectCount(a, b []uint32) int {
	n, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// Union appends a ∪ b (both sorted strictly increasing) to dst and
// returns the extended slice.
func Union(dst, a, b []uint32) []uint32 {
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

// Equal reports whether a and b hold the same elements in the same
// order.
func Equal(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// FilterGreater appends the elements of sorted xs strictly greater than
// x to dst and returns the extended slice.
func FilterGreater(dst, xs []uint32, x uint32) []uint32 {
	i := sort.Search(len(xs), func(i int) bool { return xs[i] > x })
	return append(dst, xs[i:]...)
}
