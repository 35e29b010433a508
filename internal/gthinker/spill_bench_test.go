package gthinker

import (
	"fmt"
	"testing"

	"gthinkerqc/internal/datagen"
	"gthinkerqc/internal/graph"
	"gthinkerqc/internal/quasiclique"
	"gthinkerqc/internal/store"
)

// subCodec spills *quasiclique.Sub payloads through the raw columnar
// path — the same shape the miner's payload codec produces, so this
// benchmark measures the format (verbatim arrays out, pointer fix-up
// in) on realistic task bytes.
type subCodec struct{}

func (subCodec) AppendTaskPayload(dst []byte, payload any) ([]byte, error) {
	s, ok := payload.(*quasiclique.Sub)
	if !ok {
		return nil, fmt.Errorf("subCodec: bad payload %T", payload)
	}
	return s.AppendRaw(dst), nil
}

func (subCodec) DecodeTaskPayload(data []byte) (any, error) {
	s := &quasiclique.Sub{}
	if err := s.DecodeRaw(store.NewCursor(data)); err != nil {
		return nil, err
	}
	return s, nil
}

// benchVertices is the vertex count of benchBatch's graph.
const benchVertices = 2000

// benchBatch builds one spill batch of Sub-carrying tasks shaped like
// the miner's iteration-3 decomposition subtasks (~120-vertex task
// subgraphs).
func benchBatch(b *testing.B, count int) []*Task {
	b.Helper()
	g := datagen.ErdosRenyi(benchVertices, 0.06, 42)
	tasks := make([]*Task, count)
	for i := range tasks {
		verts := make([]graph.V, 0, 120)
		for v := i; len(verts) < 120; v += 3 {
			verts = append(verts, graph.V(v%benchVertices))
		}
		// verts must be sorted and unique for SubFromGraph.
		verts = dedupSorted(verts)
		tasks[i] = NewTask(quasiclique.SubFromGraph(g, verts))
		tasks[i].Pulls = verts[:8]
	}
	return tasks
}

func dedupSorted(vs []graph.V) []graph.V {
	m := map[graph.V]bool{}
	out := vs[:0]
	for _, v := range vs {
		if !m[v] {
			m[v] = true
			out = append(out, v)
		}
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// BenchmarkSpillRefillColumnar is the GQS1 path: flat arrays verbatim
// out, sequential read + pointer fix-up in.
func BenchmarkSpillRefillColumnar(b *testing.B) {
	tasks := benchBatch(b, 32)
	var acct diskAccount
	l := newSpillList(b.TempDir(), "bench", &acct, subCodec{}, benchVertices)
	// One warm-up round trip to size buffers and report bytes/op.
	if err := l.spill(tasks); err != nil {
		b.Fatal(err)
	}
	if _, ok, err := l.refill(); !ok || err != nil {
		b.Fatalf("refill: %v %v", ok, err)
	}
	b.SetBytes(acct.written.Load())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := l.spill(tasks); err != nil {
			b.Fatal(err)
		}
		out, ok, err := l.refill()
		if err != nil || !ok {
			b.Fatalf("refill: %v %v", ok, err)
		}
		if len(out) != len(tasks) {
			b.Fatalf("got %d tasks", len(out))
		}
	}
}
