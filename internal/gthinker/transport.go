package gthinker

import (
	"fmt"
	"sync/atomic"

	"gthinkerqc/internal/graph"
)

// Transport abstracts the network between machines: a machine fetches
// adjacency lists it does not own through it, and ships the big tasks
// a steal directive takes from it. The in-process loopback
// implementation reads the shared immutable graph directly and hands
// task batches to the destination host; the TCP implementation
// (tcp.go) performs real socket round trips — everything above this
// interface is transport-agnostic.
//
// Contract: FetchAdjBatch(owner, ids, dst) returns exactly one
// adjacency list per requested id, in request order, appended to dst
// (which may be nil, or hold the answers of the batch's earlier
// owners). The OUTER slice is caller-owned scratch — the caller may
// reuse it for its next batch once it has copied the inner lists out. The INNER lists are read by concurrent tasks and retained
// by the vertex cache, so they must stay immutable and valid for the
// lifetime of the run (aliasing a receive buffer is fine as long as
// that buffer is never reused). Implementations must be safe for
// concurrent use by every worker of every machine, and must reject
// ids that machine `owner` does not own — a mis-routed fetch is a
// partitioning bug, not a request to satisfy from somewhere else. The
// loopback checks each id against the partition map and TCPTransport
// against its address table, both before a recovery redirect applies;
// a host itself answers any id of its graph, which is what lets it
// stand in for a dead peer.
type Transport interface {
	// FetchAdjBatch returns the adjacency lists of ids (all owned by
	// machine `owner`) in one round trip, appended to dst. The
	// engine's resolve path deduplicates the cache-missed pulls of a
	// whole batch of tasks, groups them by owner and issues one call
	// per owner per batch, so remote latency is paid O(owners) times
	// per C tasks instead of O(pulls) or O(tasks).
	FetchAdjBatch(owner int, ids []graph.V, dst [][]graph.V) ([][]graph.V, error)
	// Fetches returns the number of adjacency lists fetched remotely
	// (each id of a batch counts once).
	Fetches() uint64
	// BatchedFetches returns the number of batched fetch round trips
	// (≤ Fetches; the gap is the saving over per-vertex fetching).
	BatchedFetches() uint64
	// WireBytes returns the total bytes written to and read from the
	// network, including frame headers.
	WireBytes() (sent, received uint64)
	// SendTasks delivers one GQS1 batch (see internal/store) to
	// machine dest and waits for its acknowledgement; on return the
	// tasks are on dest's global queue. The batch is the caller's: it
	// may be reused once SendTasks returns.
	SendTasks(dest int, batch []byte) error
	// Redirect(dead, fallback) reroutes adjacency fetches addressed
	// to a dead machine to a coordinator-designated fallback owner —
	// worker-loss recovery's one sanctioned exception to the "reject
	// mis-routed ids" contract above. It is only sound because every
	// peer serves the full graph (the TCP hosts each mmap the whole
	// GQC2 file; the loopback reads the one shared graph).
	Redirect(dead, fallback int)
}

// RetryStats is an optional Transport extension surfacing the
// hardening counters (dial retries, idempotent-op retries) into
// Metrics.
type RetryStats interface {
	RetriedDials() uint64
	RetriedOps() uint64
}

// loopback is the in-process Transport standing in for the cluster
// network when machines are reached by direct calls (see the
// composition section of doc.go). It validates ownership exactly like a real
// per-machine vertex server would: a fetch routed to the wrong owner
// fails loudly instead of being silently satisfied from the shared
// graph, so partitioning bugs surface in loopback tests too. A task
// batch goes to the destination host's handleTasks, exactly as a
// socket would deliver it.
type loopback struct {
	g        *graph.Graph
	machines int
	hosts    []*WorkerHost // indexed by machine; filled in as the cluster composes
	fetches  atomic.Uint64
	batches  atomic.Uint64
}

func newLoopback(g *graph.Graph, machines int, hosts []*WorkerHost) *loopback {
	return &loopback{g: g, machines: machines, hosts: hosts}
}

// checkOwned validates one routed fetch against the partition map.
func (t *loopback) checkOwned(own int, v graph.V) error {
	if own < 0 || own >= t.machines {
		return fmt.Errorf("gthinker: loopback fetch from machine %d of %d", own, t.machines)
	}
	if int(v) >= t.g.NumVertices() {
		return fmt.Errorf("gthinker: loopback fetch of vertex %d out of range [0,%d)", v, t.g.NumVertices())
	}
	if o := owner(v, t.machines); o != own {
		return fmt.Errorf("gthinker: vertex %d routed to machine %d but owned by %d", v, own, o)
	}
	return nil
}

func (t *loopback) FetchAdjBatch(own int, ids []graph.V, dst [][]graph.V) ([][]graph.V, error) {
	for _, id := range ids {
		if err := t.checkOwned(own, id); err != nil {
			return nil, err
		}
	}
	for _, id := range ids {
		dst = append(dst, t.g.Adj(id))
	}
	t.fetches.Add(uint64(len(ids)))
	t.batches.Add(1)
	return dst, nil
}

func (t *loopback) Fetches() uint64        { return t.fetches.Load() }
func (t *loopback) BatchedFetches() uint64 { return t.batches.Load() }

func (t *loopback) WireBytes() (uint64, uint64) { return 0, 0 }

// SendTasks hands machine dest a copy of batch, as a socket would: the
// decoded tasks alias the bytes they came from, the receiver's miner
// reorders them in place, and the sender reuses its encode buffer.
func (t *loopback) SendTasks(dest int, batch []byte) error {
	return t.hosts[dest].handleTasks(append([]byte(nil), batch...))
}

// Redirect is a no-op: every machine reads the one shared graph.
func (t *loopback) Redirect(dead, fallback int) {}

// owner maps a vertex to its machine with a splitmix hash, like
// G-thinker's hash partitioning of the vertex table, and the one
// ownership scheme of every composition: every process of a deployment
// derives the same owner(v) from the manifest's machine count alone.
func owner(v graph.V, machines int) int {
	if machines == 1 {
		return 0
	}
	z := uint64(v) + 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int(z % uint64(machines))
}

// partitionAll computes every machine's sorted vertex partition over a
// graph of n vertices in one pass over owner(v); counting first sizes
// each partition exactly. Every process computes the same answer from
// the machine count alone.
func partitionAll(n, machines int) [][]graph.V {
	counts := make([]int, machines)
	for v := 0; v < n; v++ {
		counts[owner(graph.V(v), machines)]++
	}
	parts := make([][]graph.V, machines)
	for i := range parts {
		parts[i] = make([]graph.V, 0, counts[i])
	}
	for v := 0; v < n; v++ {
		o := owner(graph.V(v), machines)
		parts[o] = append(parts[o], graph.V(v))
	}
	return parts
}

// ownedVertices returns machine id's sorted partition in one pass that
// keeps only id's vertices.
func ownedVertices(n, machines, id int) []graph.V {
	verts := make([]graph.V, 0, n/machines+1)
	for v := 0; v < n; v++ {
		if owner(graph.V(v), machines) == id {
			verts = append(verts, graph.V(v))
		}
	}
	return verts
}
