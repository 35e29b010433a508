package gthinker

import (
	"testing"

	"gthinkerqc/internal/datagen"
	"gthinkerqc/internal/graph"
	"gthinkerqc/internal/store"
)

// The fetch benchmarks measure the tentpole claim of the batched RPC
// plane: resolving one task's worth of remote pulls costs O(owners)
// round trips batched versus O(pulls) per-vertex. benchPulls models a
// mid-size task frontier against one owning machine.
const benchPulls = 64

func benchServerAndTransport(b *testing.B) (*graph.Graph, *TCPTransport) {
	b.Helper()
	g := datagen.ErdosRenyi(2000, 0.01, 17)
	srv, err := ServeVertexTable("127.0.0.1:0", g)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { srv.Close() })
	tr := NewTCPTransport([]string{srv.Addr()}, g.NumVertices())
	b.Cleanup(func() { tr.Close() })
	return g, tr
}

// BenchmarkTCPFetchPerVertex resolves benchPulls adjacency lists with
// one socket round trip each — the pre-batching wire behavior.
func BenchmarkTCPFetchPerVertex(b *testing.B) {
	g, tr := benchServerAndTransport(b)
	ids := make([]graph.V, benchPulls)
	for i := range ids {
		ids[i] = graph.V((i * 31) % g.NumVertices())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, id := range ids {
			if _, err := fetchOne(tr, 0, id); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(benchPulls), "roundtrips/op")
}

// BenchmarkTCPFetchBatched resolves the same benchPulls lists in one
// batched round trip.
func BenchmarkTCPFetchBatched(b *testing.B) {
	g, tr := benchServerAndTransport(b)
	ids := make([]graph.V, benchPulls)
	for i := range ids {
		ids[i] = graph.V((i * 31) % g.NumVertices())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.FetchAdjBatch(0, ids, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(1, "roundtrips/op")
}

// BenchmarkTaskWireBatch round-trips a 32-task GQS1 batch through the
// task channel (encode, one opTaskSteal frame, decode + deliver).
func BenchmarkTaskWireBatch(b *testing.B) {
	tasks := make([]*Task, 32)
	for i := range tasks {
		payload := make([]graph.V, 120)
		for j := range payload {
			payload[j] = graph.V(i*7 + j)
		}
		tasks[i] = NewTask(payload)
		tasks[i].Pulls = payload[:16]
	}
	delivered := 0
	srv, err := ServeTasks("127.0.0.1:0", toyCodec{}, func(ts []*Task) { delivered += len(ts) })
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { srv.Close() })
	tr := NewTCPTransport(nil, 1)
	tr.SetTaskAddrs([]string{srv.Addr()})
	b.Cleanup(func() { tr.Close() })
	var enc store.BatchEncoder
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := encodeTaskBatch(&enc, tasks, toyCodec{})
		if err != nil {
			b.Fatal(err)
		}
		if err := tr.SendTasks(0, data); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if delivered != 32*b.N {
		b.Fatalf("delivered %d of %d tasks", delivered, 32*b.N)
	}
}
