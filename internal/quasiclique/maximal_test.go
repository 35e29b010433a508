package quasiclique

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"testing"

	"gthinkerqc/internal/graph"
)

// bruteMaximal is the oracle for FilterMaximal: every pair compared,
// membership through a map, its own ordering. It deliberately uses
// nothing from maximal.go or check.go.
func bruteMaximal(sets [][]graph.V) [][]graph.V {
	key := func(s []graph.V) string { return fmt.Sprint(s) }
	members := make([]map[graph.V]bool, len(sets))
	for i, s := range sets {
		members[i] = make(map[graph.V]bool, len(s))
		for _, v := range s {
			members[i][v] = true
		}
	}
	seen := map[string]bool{}
	out := [][]graph.V{}
	for i, s := range sets {
		if len(s) == 0 || seen[key(s)] {
			continue
		}
		maximal := true
		for j, t := range sets {
			if len(t) <= len(s) || j == i {
				continue
			}
			inside := true
			for _, v := range s {
				if !members[j][v] {
					inside = false
					break
				}
			}
			if inside {
				maximal = false
				break
			}
		}
		if maximal {
			seen[key(s)] = true
			out = append(out, s)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if len(a) != len(b) {
			return len(a) > len(b)
		}
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	return out
}

// randomSubset draws k distinct vertices of [base, base+universe), sorted.
func randomSubset(rng *rand.Rand, base graph.V, universe, k int) []graph.V {
	perm := rng.Perm(universe)[:k]
	sort.Ints(perm)
	s := make([]graph.V, k)
	for i, x := range perm {
		s[i] = base + graph.V(x)
	}
	return s
}

// randomFamily builds a family over `comps` vertex-disjoint universes
// of the given size: random sets, nested chains hanging off them, exact
// repeats and empty sets.
func randomFamily(rng *rand.Rand, comps, universe, perComp int, base graph.V) [][]graph.V {
	var sets [][]graph.V
	for c := 0; c < comps; c++ {
		cbase := base + graph.V(c*universe)
		for i := 0; i < perComp; i++ {
			s := randomSubset(rng, cbase, universe, 1+rng.Intn(universe))
			sets = append(sets, s)
			switch rng.Intn(6) {
			case 0: // exact repeat
				sets = append(sets, append([]graph.V(nil), s...))
			case 1: // chain: keep dropping one member
				for len(s) > 1 && rng.Intn(4) > 0 {
					i := rng.Intn(len(s))
					s = append(append([]graph.V(nil), s[:i]...), s[i+1:]...)
					sets = append(sets, s)
				}
			case 2:
				sets = append(sets, nil, []graph.V{})
			}
		}
	}
	rng.Shuffle(len(sets), func(i, j int) { sets[i], sets[j] = sets[j], sets[i] })
	return sets
}

func checkAgainstOracle(t *testing.T, name string, sets [][]graph.V) {
	t.Helper()
	before := fmt.Sprint(sets)
	got := FilterMaximal(sets)
	if fmt.Sprint(sets) != before {
		t.Fatalf("%s: FilterMaximal modified its input", name)
	}
	want := bruteMaximal(sets)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: %d sets in:\n got  %d: %v\n want %d: %v", name, len(sets), len(got), got, len(want), want)
	}
}

// TestFilterMaximalDifferential compares the index with the brute-force
// oracle over the shapes that stress its boundaries: universes and
// kept-set counts on both sides of every word and chunk boundary, one
// component against many, vertex IDs that force the sparse renumbering,
// and levels long enough to be probed by several goroutines.
func TestFilterMaximalDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	type tc struct {
		name string
		sets [][]graph.V
	}
	var cases []tc
	for _, universe := range []int{1, 2, 7, 63, 64, 65, 127, 128, 129} {
		for _, perComp := range []int{1, 5, 40} {
			cases = append(cases, tc{
				fmt.Sprintf("universe=%d/sets=%d", universe, perComp),
				randomFamily(rng, 1, universe, perComp, 0),
			})
		}
	}
	cases = append(cases,
		tc{"many-components", randomFamily(rng, 60, 9, 12, 100)},
		tc{"sparse-ids", randomFamily(rng, 3, 20, 15, 4_000_000_000)},
		tc{"empty-input", nil},
		tc{"only-empties", [][]graph.V{nil, {}, nil}},
	)
	// Antichains of k distinct sets over a 24-vertex component, each
	// with one subset: k kept sets, so the row width and the chunk
	// count step through 1, 2, 8 words and 1, 2, 3 chunks.
	for _, k := range []int{63, 64, 65, 128, 129, 511, 512, 513, 1025} {
		var sets [][]graph.V
		seen := map[string]bool{}
		for len(seen) < k {
			s := randomSubset(rng, 50, 24, 12)
			if seen[fmt.Sprint(s)] {
				continue
			}
			seen[fmt.Sprint(s)] = true
			sets = append(sets, s, s[1:], s[:6])
		}
		cases = append(cases, tc{fmt.Sprintf("antichain=%d", k), sets})
	}
	// Two levels of ≥ minParallelLevel sets under a layer of larger
	// ones: the shards of a parallel probe.
	var wide [][]graph.V
	for i := 0; i < 300; i++ {
		wide = append(wide, randomSubset(rng, 0, 40, 14))
	}
	for len(wide) < 300+2*minParallelLevel+100 {
		top := wide[rng.Intn(300)]
		if rng.Intn(3) == 0 {
			wide = append(wide, randomSubset(rng, 0, 40, 12+rng.Intn(2)))
		} else {
			wide = append(wide, top[:12+rng.Intn(2)])
		}
	}
	cases = append(cases, tc{"parallel-levels", wide})

	for _, c := range cases {
		checkAgainstOracle(t, c.name, c.sets)
	}
}

// TestFilterMaximalManyComponents is the shape a dense
// |vertices|×|sets| index cannot survive: 20 000 vertex-disjoint
// components (320 000 vertices, 60 000 sets; that matrix would be
// 2.4 GB). The answer is known by construction, and the bytes the call
// allocates are held to the bound maximal.go states: O(input elements).
func TestFilterMaximalManyComponents(t *testing.T) {
	const comps = 20000
	var sets, want [][]graph.V
	elements := 0
	for c := comps - 1; c >= 0; c-- {
		full := make([]graph.V, 16)
		for i := range full {
			full[i] = graph.V(c*16 + i)
		}
		sets = append(sets, full[2:9], full, full[:15])
		elements += 7 + 16 + 15
	}
	for c := 0; c < comps; c++ {
		want = append(want, sets[3*(comps-1-c)+1])
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got := FilterMaximal(sets)
	runtime.ReadMemStats(&after)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %d sets, want the %d full ones in vertex order", len(got), len(want))
	}
	// 4 B arena + ≤16 B vertex table + ≤68 B of index per element is the
	// stated worst case; this shape needs far less than half of it.
	if alloc, limit := after.TotalAlloc-before.TotalAlloc, uint64(40*elements); alloc > limit {
		t.Fatalf("allocated %d bytes for %d elements, want ≤ %d", alloc, elements, limit)
	}
}

// TestFilterMaximalGiantComponent chains 30 000 sets into one
// component of 30 001 vertices — the case where a per-component dense
// matrix (30k rows × 30k bits = 112 MB) would still be quadratic.
func TestFilterMaximalGiantComponent(t *testing.T) {
	const n = 30000
	var sets [][]graph.V
	elements := 0
	for i := 0; i < n; i++ {
		v := graph.V(i)
		sets = append(sets, []graph.V{v, v + 1}, []graph.V{v})
		elements += 3
	}
	sets = append(sets, []graph.V{0, 1, 2}) // swallows the first two links
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got := FilterMaximal(sets)
	runtime.ReadMemStats(&after)
	if len(got) != n-1 || len(got[0]) != 3 || !reflect.DeepEqual(got[1], []graph.V{2, 3}) {
		t.Fatalf("got %d sets starting %v, want %d starting [0 1 2] [2 3]", len(got), got[:2], n-1)
	}
	// Every vertex is in two kept sets, so nearly every element owns a
	// full-width row: the index's worst case, plus what growing the row
	// storage by appends leaves behind.
	if alloc, limit := after.TotalAlloc-before.TotalAlloc, uint64(200*elements); alloc > limit {
		t.Fatalf("allocated %d bytes for %d elements, want ≤ %d", alloc, elements, limit)
	}
}

// TestFinalizeSplitsAgree: however the candidates are split into parts
// (workers or machines), Finalize gives one filter over everything; and
// with the filter skipped, the distinct sets come back whatever the
// split. Workers
// append every set they emit, so Finalize is the one place repeats are
// dropped: the fixed rows below repeat sets inside one part and across
// parts, the empty set included.
func TestFinalizeSplitsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 60; round++ {
		sets := randomFamily(rng, 1+rng.Intn(4), 6+rng.Intn(20), 5+rng.Intn(40), 0)
		want := FilterMaximal(sets)
		wantRaw := Finalize([][][]graph.V{append([][]graph.V(nil), sets...)}, true)
		for parts := 1; parts <= 8; parts++ {
			split := func() [][][]graph.V {
				out := make([][][]graph.V, parts)
				for _, s := range sets {
					k := rng.Intn(parts)
					out[k] = append(out[k], s)
					if rng.Intn(5) == 0 { // the same candidate on two workers
						k = rng.Intn(parts)
						out[k] = append(out[k], s)
					}
				}
				return out
			}
			if got := Finalize(split(), false); !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d, %d parts: filtered\n got  %v\n want %v", round, parts, got, want)
			}
			if got := Finalize(split(), true); fmt.Sprint(got) != fmt.Sprint(wantRaw) {
				t.Fatalf("round %d, %d parts: unfiltered\n got  %v\n want %v", round, parts, got, wantRaw)
			}
		}
	}
	if got := Finalize(nil, false); len(got) != 0 {
		t.Fatalf("Finalize(nil) = %v", got)
	}

	repeats := []func() [][][]graph.V{
		func() [][][]graph.V { // one part
			return [][][]graph.V{{{1, 2, 3}, {1, 2, 4}, {1, 2, 3}, {2, 3}, {}, {}, {1, 2, 4}, {7, 8}, {2, 3}}}
		},
		func() [][][]graph.V { // inside parts and across them
			return [][][]graph.V{
				{{1, 2, 3}, {1, 2, 4}, {1, 2, 3}, {2, 3}, {}, {}, {1, 2, 4}},
				{{2, 3}, {7, 8}, {7, 8}, {}},
				{{1, 2, 3}},
			}
		},
	}
	distinct := [][]graph.V{{1, 2, 3}, {1, 2, 4}, {2, 3}, {7, 8}, {}}
	maximal := [][]graph.V{{1, 2, 3}, {1, 2, 4}, {7, 8}}
	for i, parts := range repeats {
		if got := Finalize(parts(), true); !reflect.DeepEqual(got, distinct) {
			t.Fatalf("repeats %d, unfiltered: got %v, want %v", i, got, distinct)
		}
		if got := Finalize(parts(), false); !reflect.DeepEqual(got, maximal) {
			t.Fatalf("repeats %d, filtered: got %v, want %v", i, got, maximal)
		}
	}
}

// TestFinalizeLeavesPartsAlone: Finalize reads the lists it is handed
// and never writes into them — not their sets, their order, nor the
// spare capacity past their length — whether it filters or not, with
// one part or several. Every part has spare capacity holding a marker
// set, and its sets are out of canonical order, so sorting or appending
// in place would show.
func TestFinalizeLeavesPartsAlone(t *testing.T) {
	marker := []graph.V{999}
	lists := [][][]graph.V{
		{{2, 3}, {1, 2, 3}, {7, 8}, {1, 2, 4}},
		{{7, 8}, {5}, {1, 2, 3, 4}},
		{{0, 9}, {2, 3}},
	}
	for _, skip := range []bool{false, true} {
		for n := 1; n <= len(lists); n++ {
			parts := make([][][]graph.V, n)
			for i := range parts {
				full := make([][]graph.V, len(lists[i])+3)
				for j := copy(full, lists[i]); j < len(full); j++ {
					full[j] = marker
				}
				parts[i] = full[:len(lists[i])]
			}
			mined := slices.Clone(parts) // the caller's own references
			Finalize(parts, skip)
			for i, part := range mined {
				if !reflect.DeepEqual(part, lists[i]) {
					t.Fatalf("skip=%v, %d parts: part %d became %v, want %v", skip, n, i, part, lists[i])
				}
				for _, set := range part[len(part):cap(part)] {
					if !slices.Equal(set, marker) {
						t.Fatalf("skip=%v, %d parts: part %d's spare capacity was written: %v", skip, n, i, part[:cap(part)])
					}
				}
			}
		}
	}
}

// FuzzFilterMaximal decodes bytes into a family — the first byte picks
// the universe, 0xFF closes a set, any other byte names a member — and
// checks the index against the oracle.
func FuzzFilterMaximal(f *testing.F) {
	f.Add([]byte{8, 1, 2, 3, 0xFF, 1, 2, 0xFF, 1, 2, 3, 0xFF, 0xFF, 7, 0xFF})
	f.Add([]byte{200, 0, 64, 128, 0xFF, 64, 0xFF, 63, 65, 0xFF, 0, 128, 0xFF})
	f.Add([]byte{0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		universe := int(data[0]) + 1
		var sets [][]graph.V
		cur := map[graph.V]bool{}
		flush := func() {
			s := make([]graph.V, 0, len(cur))
			for v := range cur {
				s = append(s, v)
			}
			sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
			sets = append(sets, s)
			cur = map[graph.V]bool{}
		}
		for _, b := range data[1:] {
			if b == 0xFF {
				flush()
			} else {
				cur[graph.V(int(b)%universe)] = true
			}
		}
		flush()
		checkAgainstOracle(t, "fuzz", sets)
	})
}
