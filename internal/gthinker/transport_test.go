package gthinker

import (
	"slices"
	"strings"
	"testing"

	"gthinkerqc/internal/datagen"
	"gthinkerqc/internal/graph"
)

// ownedBy collects the first vertices owned by machine m.
func ownedBy(n, m, machines, want int) []graph.V {
	var out []graph.V
	for v := 0; v < n && len(out) < want; v++ {
		if owner(graph.V(v), machines) == m {
			out = append(out, graph.V(v))
		}
	}
	return out
}

// TestLoopbackValidatesOwner: the loopback transport must reject
// fetches routed to a machine that does not own the vertex — the same
// contract a real per-machine vertex server enforces — so partitioning
// bugs fail loudly in loopback tests instead of being silently served
// from the shared graph.
func TestLoopbackValidatesOwner(t *testing.T) {
	g := datagen.ErdosRenyi(64, 0.2, 7)
	tr := newLoopback(g, 4, nil)
	mine := ownedBy(64, 1, 4, 3)
	theirs := ownedBy(64, 2, 4, 1)

	adjs, err := tr.FetchAdjBatch(1, mine, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range mine {
		if !slices.Equal(adjs[i], g.Adj(v)) {
			t.Fatalf("adjacency of %d corrupted", v)
		}
	}
	if _, err := tr.FetchAdjBatch(1, append(append([]graph.V{}, mine...), theirs...), nil); err == nil {
		t.Fatal("mis-routed batch fetch accepted")
	} else if !strings.Contains(err.Error(), "owned by") {
		t.Fatalf("wrong error for mis-routed fetch: %v", err)
	}
	if _, err := fetchOne(tr, 1, theirs[0]); err == nil {
		t.Fatal("mis-routed single fetch accepted")
	}
	if _, err := fetchOne(tr, 9, mine[0]); err == nil {
		t.Fatal("out-of-range machine accepted")
	}
	if _, err := fetchOne(tr, 1, graph.V(1<<20)); err == nil {
		t.Fatal("out-of-range vertex accepted")
	}
}

// TestLoopbackBatchReusesDst: the outer slice appends into the
// caller's scratch, so steady-state resolve pays no per-call outer
// allocation (the PR 5 satellite fix — loopback used to allocate a
// fresh [][]graph.V per call).
func TestLoopbackBatchReusesDst(t *testing.T) {
	g := datagen.ErdosRenyi(64, 0.2, 7)
	tr := newLoopback(g, 2, nil)
	ids := ownedBy(64, 1, 2, 4)
	scratch := make([][]graph.V, 0, 16)
	allocs := testing.AllocsPerRun(100, func() {
		out, err := tr.FetchAdjBatch(1, ids, scratch[:0])
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != len(ids) {
			t.Fatalf("%d lists for %d ids", len(out), len(ids))
		}
	})
	if allocs != 0 {
		t.Fatalf("loopback batch fetch allocates %v per call with caller scratch", allocs)
	}
}
