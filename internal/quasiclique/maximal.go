package quasiclique

import (
	"runtime"
	"slices"
	"sync"

	"gthinkerqc/internal/bitset"
	"gthinkerqc/internal/graph"
)

// The post-processing phase: the miner emits candidates that are valid
// quasi-cliques but not necessarily maximal, and this file turns them
// into the final result. Removing non-maximal sets is a containment
// query — "is s inside some larger set that was kept" — asked once per
// candidate, so it is answered from an index, not by search:
//
//   - Candidates are union-found into vertex-disjoint components. Sets
//     of different components share no vertex, so neither can contain
//     the other and each component is filtered on its own, over its own
//     densely renumbered vertices.
//   - Within a component the sets are visited from large to small. The
//     kept sets are numbered in insertion order and cut into chunks of
//     64·chunkWords; a chunk holds, for every vertex that occurs in it, one
//     posting bitmap over the chunk's sets. s is inside a set of the
//     chunk iff the AND of its vertices' rows is non-zero, which is
//     |s|−1 bitset.AndCountTo calls with an exit on the first zero.
//   - Sets of one size cannot contain each other, so a size level is
//     checked against the index as it stood before the level (in
//     parallel when it is long enough) and its survivors are inserted
//     afterwards.
//
// Memory: a row exists only for a (chunk, vertex) pair that some kept
// set realises, so the index holds at most one row — 8·stride+4 ≤ 68
// bytes — per element of the kept sets, and typically far fewer (the
// sets of a chunk overlap). Next to it live one uint32 per input
// element (the renumbered copy) and a few words per distinct vertex
// and per set. Nothing is sized |vertices|×|sets|, within a component
// or across them.

const (
	// chunkWords is the posting-row width of a full chunk (512 sets).
	// It caps what the index spends per element of the kept sets at
	// one row of 8·chunkWords+4 = 68 bytes (see Memory above), and the
	// probe's scratch row fits on the stack. Components with fewer
	// sets use narrower rows.
	chunkWords = 8
	// minParallelLevel is the shortest size level worth splitting over
	// goroutines; below it the spawn and join cost more than the probes.
	minParallelLevel = 1024
)

// FilterMaximal removes duplicates and every set that is a strict
// subset of another set in the input — the paper's post-processing
// phase that turns the miner's candidate stream into the final maximal
// quasi-clique set. Input sets must be sorted and are not modified;
// output is in canonical order (size descending, then lexicographic).
func FilterMaximal(sets [][]graph.V) [][]graph.V {
	f := newMaxFilter(sets)
	for c := 0; c+1 < len(f.compStart); c++ {
		f.filterComponent(f.compSets[f.compStart[c]:f.compStart[c+1]], int(f.compVerts[c]))
	}
	alive := 0
	for _, d := range f.dead {
		if !d {
			alive++
		}
	}
	kept := make([][]graph.V, 0, alive)
	for p, i := range f.order {
		if !f.dead[p] {
			kept = append(kept, sets[i])
		}
	}
	SortSets(kept)
	return dedupSorted(kept)
}

// Finalize is the post-processing phase every mining entry point ends
// with — serial MineGraph and the machine and coordinator halves of a
// cluster. parts are candidate collections gathered independently (one
// per worker, or one per machine), and Finalize filters their union
// once. (A set that is not maximal among its own part is not maximal
// globally, so the parts could be filtered first, side by side; on the
// engine benchmarks that pre-pass cost more than it saved.) With
// skipFilter the result is every distinct candidate, canonically
// ordered, and nothing is filtered. Finalize only reads parts: the
// union is sorted and filtered in a slice of its own.
func Finalize(parts [][][]graph.V, skipFilter bool) [][]graph.V {
	if len(parts) == 0 {
		return nil
	}
	total := 0
	for _, part := range parts {
		total += len(part)
	}
	all := make([][]graph.V, 0, total)
	for _, part := range parts {
		all = append(all, part...)
	}
	if skipFilter {
		SortSets(all)
		return dedupSorted(all)
	}
	return FilterMaximal(all)
}

// SortSets orders sets canonically: size descending, then
// lexicographically by content.
func SortSets(sets [][]graph.V) {
	slices.SortFunc(sets, func(a, b []graph.V) int {
		if len(a) != len(b) {
			return len(b) - len(a)
		}
		return slices.Compare(a, b)
	})
}

// dedupSorted drops repeated sets from a canonically ordered
// collection, in place: equal sets sort next to each other.
func dedupSorted(sets [][]graph.V) [][]graph.V {
	return slices.CompactFunc(sets, slices.Equal[[]graph.V])
}

// maxFilter is the state of one FilterMaximal call. Sets are addressed
// by position: their rank in size-descending order.
type maxFilter struct {
	order []uint32 // position → index into the caller's sets
	elems []uint32 // every set's vertices, renumbered component-locally
	off   []int    // position p's vertices are elems[off[p]:off[p+1]]
	dead  []bool   // position → contained in a larger kept set

	compStart []int    // component c's sets are compSets[compStart[c]:compStart[c+1]]
	compSets  []uint32 // positions grouped by component, size-descending within each
	compVerts []uint32 // component → number of distinct vertices

	ix containIndex // reset per component, storage reused
	// rowOf[k] is the k-th probing goroutine's expansion of one chunk's
	// vertex list: local vertex → row+1 in the loaded chunk, 0 if
	// absent, so a row lookup is one load. rowOf[0] also serves inserts.
	// All zero between uses: every load is paired with an unload.
	rowOf [][]uint32
}

// newMaxFilter orders the non-empty sets by size, copies them into one
// arena under dense vertex numbers, and splits them into components.
func newMaxFilter(sets [][]graph.V) *maxFilter {
	// Counting sort by size, descending; sets are sorted, so the last
	// member is the largest vertex.
	n, total, maxLen := 0, 0, 0
	var maxV graph.V
	for _, s := range sets {
		if len(s) == 0 {
			continue
		}
		n++
		total += len(s)
		maxLen = max(maxLen, len(s))
		maxV = max(maxV, s[len(s)-1])
	}
	f := &maxFilter{
		order: make([]uint32, n),
		elems: make([]uint32, 0, total),
		off:   make([]int, 1, n+1),
		dead:  make([]bool, n),
	}
	if n == 0 {
		f.compStart = []int{0}
		return f
	}
	next := make([]int, maxLen+1) // next[l]: next free position for a set of size l
	for _, s := range sets {
		if len(s) > 0 {
			next[len(s)-1]++ // counted one slot down, so the suffix sum is "sets larger than l"
		}
	}
	for l := maxLen - 1; l >= 1; l-- {
		next[l] += next[l+1]
	}
	for i, s := range sets {
		if len(s) > 0 {
			f.order[next[len(s)]] = uint32(i)
			next[len(s)]++
		}
	}

	// Renumber vertices densely in first-seen order and union each
	// set's members.
	ids := newVertexIDs(maxV, total)
	var uf unionFind
	for _, i := range f.order {
		s := sets[i]
		root := ^uint32(0) // of the set's members so far
		for _, v := range s {
			u := ids.id(v, &uf)
			f.elems = append(f.elems, u)
			root = uf.link(root, uf.find(u))
		}
		f.off = append(f.off, len(f.elems))
	}

	// Number the components and, inside each, its vertices. A class's
	// root is its smallest member, so it is numbered before the rest.
	vcomp := make([]uint32, len(uf.parent))
	vlocal := make([]uint32, len(uf.parent))
	for u := range uf.parent {
		if r := uf.find(uint32(u)); r == uint32(u) {
			vcomp[u] = uint32(len(f.compVerts))
			f.compVerts = append(f.compVerts, 0)
		} else {
			vcomp[u] = vcomp[r]
		}
		c := vcomp[u]
		vlocal[u] = f.compVerts[c]
		f.compVerts[c]++
	}

	// Group positions by component (stable, so still size-descending)
	// and switch the arena to component-local numbers.
	f.compStart = make([]int, len(f.compVerts)+1)
	for p := 0; p < n; p++ {
		f.compStart[vcomp[f.elems[f.off[p]]]+1]++
	}
	for c := 1; c < len(f.compStart); c++ {
		f.compStart[c] += f.compStart[c-1]
	}
	f.compSets = make([]uint32, n)
	fill := slices.Clone(f.compStart[:len(f.compVerts)])
	for p := 0; p < n; p++ {
		c := vcomp[f.elems[f.off[p]]]
		f.compSets[fill[c]] = uint32(p)
		fill[c]++
	}
	for j, u := range f.elems {
		f.elems[j] = vlocal[u]
	}
	return f
}

func (f *maxFilter) set(p uint32) []uint32 { return f.elems[f.off[p]:f.off[p+1]] }

// filterComponent marks the non-maximal sets among ps, the positions
// of one component in size-descending order, over nverts local
// vertices.
func (f *maxFilter) filterComponent(ps []uint32, nverts int) {
	size := func(p uint32) int { return f.off[p+1] - f.off[p] }
	if size(ps[0]) == size(ps[len(ps)-1]) {
		return // one size: nothing can contain anything
	}
	ix := &f.ix
	ix.stride, ix.chunks = min(bitset.WordsFor(len(ps)), chunkWords), ix.chunks[:0]
	for lo := 0; lo < len(ps); {
		hi := lo + 1
		for hi < len(ps) && size(ps[hi]) == size(ps[lo]) {
			hi++
		}
		if lo > 0 {
			f.probeLevel(ix, ps[lo:hi], nverts)
		}
		if hi < len(ps) { // the smallest level is never probed against
			rowOf := f.scratch(0, nverts)
			ix.load(rowOf, len(ix.chunks)-1)
			for _, p := range ps[lo:hi] {
				if !f.dead[p] {
					ix.insert(rowOf, f.set(p))
				}
			}
			ix.unload(rowOf, len(ix.chunks)-1)
		}
		lo = hi
	}
}

// probeLevel marks every set of one size level that some kept set
// contains. The index is read-only here and each position is written
// by one goroutine, so a long level is split into contiguous shards.
func (f *maxFilter) probeLevel(ix *containIndex, level []uint32, nverts int) {
	shards := 1
	if len(level) >= minParallelLevel {
		shards = min(runtime.GOMAXPROCS(0), len(level)/(minParallelLevel/2))
	}
	if shards == 1 {
		ix.probe(f, level, f.scratch(0, nverts))
		return
	}
	var wg sync.WaitGroup
	for k := 0; k < shards; k++ {
		shard := level[k*len(level)/shards : (k+1)*len(level)/shards]
		rowOf := f.scratch(k, nverts)
		wg.Add(1)
		go func() {
			defer wg.Done()
			ix.probe(f, shard, rowOf)
		}()
	}
	wg.Wait()
}

// scratch returns rowOf[k], grown to cover nverts vertices.
func (f *maxFilter) scratch(k, nverts int) []uint32 {
	for len(f.rowOf) <= k {
		f.rowOf = append(f.rowOf, nil)
	}
	if len(f.rowOf[k]) < nverts {
		f.rowOf[k] = make([]uint32, nverts)
	}
	return f.rowOf[k]
}

// chunk indexes up to 64·stride consecutive kept sets of a component.
type chunk struct {
	verts []uint32 // vertices that occur in the chunk, in row order
	rows  []uint64 // len(verts) rows of stride words; bit k of a row: set k contains the vertex
	n     int      // sets inserted
}

// containIndex answers "is s inside a kept set" for one component.
type containIndex struct {
	stride int // words per row; a chunk is full at 64·stride sets
	chunks []chunk
}

// load expands chunk ci's vertex list into rowOf; unload clears it
// again. ci = −1 (no chunk yet) is a no-op for both.
func (ix *containIndex) load(rowOf []uint32, ci int) {
	if ci >= 0 {
		for r, v := range ix.chunks[ci].verts {
			rowOf[v] = uint32(r) + 1
		}
	}
}

func (ix *containIndex) unload(rowOf []uint32, ci int) {
	if ci >= 0 {
		for _, v := range ix.chunks[ci].verts {
			rowOf[v] = 0
		}
	}
}

// insert adds s as the next kept set. rowOf holds the last chunk and
// is kept in step when a full chunk is closed and a new one opened.
func (ix *containIndex) insert(rowOf []uint32, s []uint32) {
	last := len(ix.chunks) - 1
	if last < 0 || ix.chunks[last].n == 64*ix.stride {
		ix.unload(rowOf, last)
		last++
		if last < cap(ix.chunks) { // storage left by an earlier component
			ix.chunks = ix.chunks[:last+1]
			ch := &ix.chunks[last]
			ch.verts, ch.rows, ch.n = ch.verts[:0], ch.rows[:0], 0
		} else {
			ix.chunks = append(ix.chunks, chunk{})
		}
	}
	ch := &ix.chunks[last]
	for _, v := range s {
		r := rowOf[v]
		if r == 0 {
			ch.verts = append(ch.verts, v)
			ch.rows = append(ch.rows, make([]uint64, ix.stride)...)
			r = uint32(len(ch.verts))
			rowOf[v] = r
		}
		bitset.SetBit(ch.rows[int(r-1)*ix.stride:], ch.n)
	}
	ch.n++
}

// probe marks the sets of level that a kept set contains, chunk by
// chunk so that each chunk's row table is expanded once per shard.
func (ix *containIndex) probe(f *maxFilter, level []uint32, rowOf []uint32) {
	for ci := range ix.chunks {
		ix.load(rowOf, ci)
		for _, p := range level {
			if !f.dead[p] && ix.chunks[ci].contains(f.set(p), rowOf, ix.stride) {
				f.dead[p] = true
			}
		}
		ix.unload(rowOf, ci)
	}
}

// contains reports whether some set of the chunk (loaded into rowOf)
// is a superset of s: the AND of the rows of s's vertices is non-zero.
func (ch *chunk) contains(s []uint32, rowOf []uint32, stride int) bool {
	var buf [chunkWords]uint64 // on the stack: goroutines probing side by side share no line
	acc := buf[:stride]
	for k, v := range s {
		r := rowOf[v]
		if r == 0 {
			return false
		}
		row := ch.rows[int(r-1)*stride:][:stride]
		if k == 0 {
			copy(acc, row) // non-zero: a listed vertex occurs in some set
		} else if bitset.AndCountTo(acc, acc, row) == 0 {
			return false
		}
	}
	return true
}

// vertexIDs hands out dense numbers to vertices in first-seen order.
// Graph vertex IDs are compact, so the table is a flat array whenever
// the largest ID is within a constant factor of the input size, and a
// map only for inputs that name a few huge IDs, where the array would
// not be O(input).
type vertexIDs struct {
	table  []uint32 // vertex → number+1, 0 if unseen
	sparse map[graph.V]uint32
}

func newVertexIDs(maxV graph.V, elements int) *vertexIDs {
	if uint64(maxV) < 4*uint64(elements)+1024 {
		return &vertexIDs{table: make([]uint32, int(maxV)+1)}
	}
	return &vertexIDs{sparse: make(map[graph.V]uint32)}
}

// id returns v's number, adding v to uf when it is new.
func (t *vertexIDs) id(v graph.V, uf *unionFind) uint32 {
	if t.table != nil {
		if t.table[v] == 0 {
			t.table[v] = uf.add() + 1
		}
		return t.table[v] - 1
	}
	u, ok := t.sparse[v]
	if !ok {
		u = uf.add()
		t.sparse[v] = u
	}
	return u
}

// unionFind is a disjoint-set forest over dense numbers: the smaller
// root wins a link, finds halve the path.
type unionFind struct{ parent []uint32 }

func (u *unionFind) add() uint32 {
	x := uint32(len(u.parent))
	u.parent = append(u.parent, x)
	return x
}

func (u *unionFind) find(x uint32) uint32 {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

// link joins the classes of roots a and b and returns the joint root.
// a may be ^0, "no class yet".
func (u *unionFind) link(a, b uint32) uint32 {
	if a > b {
		a, b = b, a
	}
	if b != ^uint32(0) {
		u.parent[b] = a
	}
	return a
}
