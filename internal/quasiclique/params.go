// Package quasiclique implements the paper's core contribution: the
// corrected recursive algorithm for mining maximal γ-quasi-cliques
// (Section 4) together with the seven pruning-rule families (P1)–(P7)
// of Section 3.2, an exhaustive ground-truth enumerator, a
// Quick-compatible ablation mode reproducing the original algorithm's
// missed results, and the maximality post-filter.
//
// A γ-quasi-clique is a connected subgraph in which every vertex is
// adjacent to at least ⌈γ·(n−1)⌉ of the other n−1 vertices. The miner
// requires γ ≥ 0.5, which bounds the quasi-clique diameter by 2
// (Theorem 1) and is the regime the paper evaluates.
//
// # Miner pooling
//
// The Miner is built for per-worker reuse: construct one with
// NewPooledMiner, install Emit (and, for parallel mining, TimedOut/
// Offload/Abort) once, then call Reset(sub) before each task. Reset
// rebinds the miner, zeroes the per-task counters, and retains every
// internal buffer — the adjacency matrix, the two-hop cache, and the
// per-depth recursion arena all grow monotonically — so steady-state
// mining allocates nothing per expanded tree node. A Miner is
// single-goroutine; pool one per worker, never share across workers.
//
// # One representation
//
// Every pruning rule is written once, against the bound task
// subgraph's bitset adjacency matrix: degree and intersection queries
// are popcount-over-AND loops of ⌈n/64⌉ words. The matrix costs
// n·⌈n/64⌉·8 bytes of pooled memory per miner, twice that with the
// two-hop row cache, so a miner builds one only for task subgraphs of
// at most 1 024 vertices (128 KiB + 128 KiB). Task subgraphs are
// post-k-core two-hop neighborhoods and almost always fit far below
// that. One that does not is split at its first level: each child
// ⟨S ∪ {v}, ext′⟩ is diameter-filtered from the adjacency lists,
// materialised, cut by Theorem 3 (which a Sub's own degrees answer)
// until it fits, and mined on its own matrix — or split again. The
// split level has no cover vertex, no look-ahead past the first
// candidate and no bounding, so only its search tree differs; a child
// that finds nothing gets mine's conservative emission check, so
// results stay exact.
//
// A decomposed subtask keeps the matrix's form. Miner.Subtask compacts
// the child from the bound matrix — each kept row's bits over the
// sorted S ∪ ext, mapped to the child's indices — into a rows Sub, and
// the child stays bit rows through the engine's queue, spill file and
// steal frame (Sub.AppendRaw writes the words verbatim) until the
// next miner binds it with a copy. A root task up to matrixCap, of the
// serial driver and the G-thinker app alike, is a rows Sub from the
// start: RootSub fills its induced matrix in worker scratch, peels it
// by popcount and compacts the survivors the same way.
//
// Every list Sub comes out of one induction routine, Induce: each
// k-core peel's (PeelKCoreScratch), a root above matrixCap (RootSub's
// fallback), BuildRootSub's probe root, and the children of an
// oversize split (MakeSubtaskScratch), whose parent has no matrix to
// compact from. It marks the kept IDs in the Scratch's epoch-stamped
// marker, counts the kept entries of each row exactly and fills them
// into one allocation.
package quasiclique

import (
	"fmt"
	"math"
)

// Params are the user-facing problem parameters of Definition 3.
type Params struct {
	// Gamma is the minimum degree ratio γ ∈ [0.5, 1].
	Gamma float64
	// MinSize is the minimum quasi-clique size τsize ≥ 2.
	MinSize int
}

// Validate reports whether the parameters are in the supported range.
func (p Params) Validate() error {
	if !(p.Gamma >= 0.5 && p.Gamma <= 1) { // also rejects NaN
		return fmt.Errorf("quasiclique: Gamma = %v out of supported range [0.5, 1] (diameter-2 pruning requires γ ≥ 0.5)", p.Gamma)
	}
	if p.MinSize < 2 {
		return fmt.Errorf("quasiclique: MinSize = %d, need ≥ 2", p.MinSize)
	}
	return nil
}

// K returns the degree threshold k = ⌈γ·(τsize−1)⌉ of Theorem 2: any
// vertex with global degree < k cannot appear in a valid quasi-clique,
// so graphs can be shrunk to their k-core (pruning T1).
func (p Params) K() int { return CeilMul(p.Gamma, p.MinSize-1) }

// CeilMul returns ⌈gamma·n⌉ robustly for the binary-float γ values used
// in practice (0.9, 0.8, ...): the product is nudged down by 1e-9
// before rounding up, so 0.9×10 = 9.000000000000002 yields 9, not 10.
// Erring low loosens a pruning threshold, which is always sound.
func CeilMul(gamma float64, n int) int {
	if n <= 0 {
		return 0
	}
	v := int(math.Ceil(gamma*float64(n) - 1e-9))
	if v < 0 {
		return 0
	}
	return v
}

// FloorDiv returns ⌊x/gamma⌋ robustly (nudged up by 1e-9 before
// rounding down). Erring high loosens the upper bound U_S, which is
// always sound.
func FloorDiv(x int, gamma float64) int {
	return int(math.Floor(float64(x)/gamma + 1e-9))
}

// Options toggles individual techniques for ablation studies. The zero
// value enables everything (the paper's full algorithm). Disabling a
// rule never changes the final result set (each rule only skips
// provably fruitless work); it changes running time and the number of
// non-maximal candidates emitted before post-processing.
type Options struct {
	// DisableKCore skips the global k-core preprocessing (T1): both
	// drivers gate roots and members by degree ≥ k instead of core
	// number ≥ k (Gate), and still peel each root task to its own
	// k-core. The paper reports T1 is "a dominating factor to scale
	// beyond a small graph".
	DisableKCore bool
	// DisableLookahead skips the G(S ∪ ext(S)) early-accept of [27]
	// (Algorithm 2 lines 8–10).
	DisableLookahead bool
	// DisableCoverVertex skips cover-vertex pruning (P7).
	DisableCoverVertex bool
	// DisableCriticalVertex skips critical-vertex pruning (P6).
	DisableCriticalVertex bool
	// DisableUpperBound skips U_S computation and Theorems 5–6 (P4).
	DisableUpperBound bool
	// DisableLowerBound skips L_S computation and Theorems 7–8 (P5);
	// it implies DisableCriticalVertex (the critical-vertex condition
	// is defined in terms of L_S).
	DisableLowerBound bool
	// DisableDegreePruning skips Theorems 3–4 (P3).
	DisableDegreePruning bool
	// QuickCompat reproduces the original Quick algorithm's two missed
	// checks (the paper, T5/T6): (1) G(S') is not examined when
	// ext(S') becomes empty after diameter shrinking; (2) G(S) is not
	// examined before critical-vertex expansion. With this set the
	// miner can MISS results — it exists to reproduce the paper's
	// "Quick misses results" claim.
	QuickCompat bool
	// SkipMaximalityFilter leaves non-maximal candidates in the
	// output, mirroring the paper's released code ("currently we do
	// not include a processing step to remove non-maximal results").
	// The output is then every distinct emission that survived the
	// miner's screen (Miner.Emit), which runs either way.
	SkipMaximalityFilter bool
}
