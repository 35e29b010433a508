package gthinker

import (
	"slices"
	"testing"

	"gthinkerqc/internal/datagen"
	"gthinkerqc/internal/graph"
)

// TestPartitionHashMatchesLegacy pins the nil-bounds partition to the
// splitmix owner function, and its partitions to a brute-force owner
// loop.
func TestPartitionHashMatchesLegacy(t *testing.T) {
	p := partition{machines: 4}
	for v := graph.V(0); v < 1000; v++ {
		if got, want := p.owner(v), owner(v, 4); got != want {
			t.Fatalf("owner(%d) = %d, want %d", v, got, want)
		}
	}
	for id, part := range p.partitionAll(1000) {
		var want []graph.V
		for v := graph.V(0); v < 1000; v++ {
			if owner(v, 4) == id {
				want = append(want, v)
			}
		}
		if !slices.Equal(part, want) || !slices.Equal(p.ownedVertices(1000, id), want) {
			t.Fatalf("partition %d = %v, want %v", id, part, want)
		}
	}
}

// TestPartitionRangeOwner checks the range table lookup, including
// empty ranges and boundary vertices.
func TestPartitionRangeOwner(t *testing.T) {
	// machine 0: [0,3) machine 1: [3,3) (empty) machine 2: [3,7)
	p := partition{machines: 3, bounds: []uint32{0, 3, 3, 7}}
	want := []int{0, 0, 0, 2, 2, 2, 2}
	for v, w := range want {
		if got := p.owner(graph.V(v)); got != w {
			t.Fatalf("owner(%d) = %d, want %d", v, got, w)
		}
	}
}

// TestPartitionRangeConsistency: every vertex lands in exactly one
// machine's ownedVertices, and that machine is owner(v) — including
// empty and single-vertex ranges.
func TestPartitionRangeConsistency(t *testing.T) {
	const n = 100
	p := partition{machines: 5, bounds: []uint32{0, 10, 10, 11, 60, 100}}
	seen := make([]int, n)
	for i := range seen {
		seen[i] = -1
	}
	for id := 0; id < p.machines; id++ {
		for _, v := range p.ownedVertices(n, id) {
			if seen[v] != -1 {
				t.Fatalf("vertex %d owned by machines %d and %d", v, seen[v], id)
			}
			seen[v] = id
			if got := p.owner(v); got != id {
				t.Fatalf("vertex %d in partition %d but owner() says %d", v, id, got)
			}
		}
	}
	for v, id := range seen {
		if id == -1 {
			t.Fatalf("vertex %d unowned", v)
		}
	}
	// partitionAll agrees with per-machine calls.
	parts := p.partitionAll(n)
	for id, part := range parts {
		if !slices.Equal(part, p.ownedVertices(n, id)) {
			t.Fatalf("partitionAll[%d] disagrees with ownedVertices", id)
		}
	}
}

// TestPartitionRangeClamped: bounds beyond n (a manifest for a bigger
// graph would be rejected upstream, but ownedVertices still clamps).
func TestPartitionRangeClamped(t *testing.T) {
	p := partition{machines: 2, bounds: []uint32{0, 50, 100}}
	if got := p.ownedVertices(30, 1); len(got) != 0 {
		t.Fatalf("clamped partition has %d vertices, want 0", len(got))
	}
	if got := p.ownedVertices(60, 1); len(got) != 10 {
		t.Fatalf("clamped partition has %d vertices, want 10", len(got))
	}
}

// TestLoopbackRangeOwnership: a loopback with range bounds enforces
// range ownership on fetches.
func TestLoopbackRangeOwnership(t *testing.T) {
	g := graph.FromEdges(6, [][2]graph.V{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}})
	tr := newLoopback(g, partition{machines: 2, bounds: []uint32{0, 3, 6}}, nil)
	if _, err := fetchOne(tr, 0, 2); err != nil {
		t.Fatalf("fetch of owned vertex failed: %v", err)
	}
	if _, err := fetchOne(tr, 0, 3); err == nil {
		t.Fatal("fetch of vertex 3 from machine 0 should fail under bounds [0,3,6]")
	}
}

// TestConfigPartitionBoundsValidate exercises the config-level shape
// checks.
func TestConfigPartitionBoundsValidate(t *testing.T) {
	base := Config{Machines: 2, WorkersPerMachine: 1, QueueCap: 8, BatchSize: 4}
	ok := base
	ok.PartitionBounds = []uint32{0, 5, 10}
	if err := ok.validate(); err != nil {
		t.Fatalf("valid bounds rejected: %v", err)
	}
	for _, bad := range [][]uint32{
		{0, 5},         // too short
		{0, 5, 10, 12}, // too long
		{1, 5, 10},     // does not start at 0
		{0, 7, 5},      // decreasing
	} {
		c := base
		c.PartitionBounds = bad
		if err := c.validate(); err == nil {
			t.Fatalf("bounds %v accepted", bad)
		}
	}
}

// TestEngineRangePartition runs the triangle-counting app under a
// range partition (loopback and real sockets) and demands the exact
// count hash partitioning produces — ownership must not change what is
// computed, only where.
func TestEngineRangePartition(t *testing.T) {
	g := datagen.ErdosRenyi(300, 0.05, 7)
	want := bruteTriangles(g)
	for _, tcp := range []bool{false, true} {
		app := &triApp{g: g}
		met := mustRunApp(t, g, app, Config{
			Machines: 3, WorkersPerMachine: 2,
			SpillDir:        t.TempDir(),
			PartitionBounds: g.RangeBounds(3),
			InProcessTCP:    tcp,
		}).Metrics
		if app.count.Load() != want {
			t.Fatalf("tcp=%v: triangles = %d, want %d", tcp, app.count.Load(), want)
		}
		if met.RemoteFetches == 0 {
			t.Fatalf("tcp=%v: multi-machine range run should fetch remotely", tcp)
		}
	}
}
