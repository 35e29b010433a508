package gthinker

import (
	"slices"
	"testing"

	"gthinkerqc/internal/graph"
)

// TestPartitionHashMatchesLegacy pins partitionAll and ownedVertices
// to a brute-force loop over the splitmix owner function.
func TestPartitionHashMatchesLegacy(t *testing.T) {
	for id, part := range partitionAll(1000, 4) {
		var want []graph.V
		for v := graph.V(0); v < 1000; v++ {
			if owner(v, 4) == id {
				want = append(want, v)
			}
		}
		if !slices.Equal(part, want) || !slices.Equal(ownedVertices(1000, 4, id), want) {
			t.Fatalf("partition %d = %v, want %v", id, part, want)
		}
	}
}
