package gthinker

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"gthinkerqc/internal/graph"
	"gthinkerqc/internal/store"
)

// toyCodec is the TaskCodec half of every toy app in these tests
// (each embeds it through nilApp): a payload travels as a kind word followed by its fields flattened to
// uint32s.
type toyCodec struct{}

func (toyCodec) AppendTaskPayload(dst []byte, payload any) ([]byte, error) {
	switch p := payload.(type) {
	case []graph.V:
		return store.AppendU32s(store.AppendU32(dst, 'v'), p), nil
	case *fanPayload:
		return store.AppendU32s(store.AppendU32(dst, 'f'), []uint32{uint32(p.Depth), uint32(p.Fanout)}), nil
	case *triPayload:
		return store.AppendU32s(store.AppendU32(store.AppendU32(dst, 't'), p.Root), p.Adj), nil
	}
	return nil, fmt.Errorf("toyCodec: bad payload %T", payload)
}

func (toyCodec) DecodeTaskPayload(data []byte) (any, error) {
	c := store.NewCursor(data)
	kind := c.U32()
	words := c.U32s(c.Remaining() / 4)
	switch {
	case c.Err() != nil:
		return nil, c.Err()
	case kind == 'v':
		return words, nil
	case kind == 'f' && len(words) == 2:
		return &fanPayload{Depth: int(words[0]), Fanout: int(words[1])}, nil
	case kind == 't' && len(words) >= 1:
		return &triPayload{Root: words[0], Adj: words[1:]}, nil
	}
	return nil, fmt.Errorf("toyCodec: bad payload kind %q with %d words", kind, len(words))
}

// nilApp spawns nothing and reports no result frame; other toy apps
// embed it for the App methods they do not care about.
type nilApp struct{ toyCodec }

func (nilApp) Spawn(graph.V, []graph.V, *Ctx) *Task  { return nil }
func (nilApp) Compute(*Task, [][]graph.V, *Ctx) bool { return false }
func (nilApp) IsBig(*Task) bool                      { return false }
func (nilApp) Results() ([]byte, error)              { return nil, nil }

// sharedApp is the application factory these tests hand a cluster:
// every machine of a job runs the one app the test set, so the test
// can read what the app gathered once the job is done.
type sharedApp struct {
	mu  sync.Mutex
	app App
}

func (s *sharedApp) newApp([]byte, int) (App, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.app, nil
}

// localCluster is a local cluster whose jobs run a shared test app.
type localCluster struct {
	*Cluster
	shared *sharedApp
}

// newTestCluster is newLocalCluster over a sharedApp factory.
func newTestCluster(g *graph.Graph, cfg Config, wrap func(machine int, lb *loopback) Transport) (*localCluster, error) {
	s := &sharedApp{}
	c, err := newLocalCluster(g, cfg, s.newApp, wrap)
	if err != nil {
		return nil, err
	}
	return &localCluster{Cluster: c, shared: s}, nil
}

// run runs app as the cluster's next job.
func (c *localCluster) run(ctx context.Context, app App) (*JobResult, error) {
	c.shared.mu.Lock()
	c.shared.app = app
	c.shared.mu.Unlock()
	return c.RunJob(ctx, nil)
}

// testCluster composes a local cluster over g that closes with the
// test.
func testCluster(t testing.TB, g *graph.Graph, cfg Config) *localCluster {
	t.Helper()
	c, err := newTestCluster(g, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// mustRunApp runs app as the one job of a fresh local cluster and
// expects it to succeed.
func mustRunApp(t testing.TB, g *graph.Graph, app App, cfg Config) *JobResult {
	t.Helper()
	res, err := testCluster(t, g, cfg).run(context.Background(), app)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// installJob puts every machine of c onto a job running app without
// starting its workers, so a white-box test can load queues and drive
// the coordinator's steal rounds by hand. Job 0 is what an idle
// ClusterClient stamps on its frames.
func installJob(t testing.TB, c *Cluster, app App) []*MachineRuntime {
	t.Helper()
	rts := make([]*MachineRuntime, len(c.hosts))
	for i, h := range c.hosts {
		rts[i] = h.Runtime()
		if err := rts[i].ResetJob(app, 0); err != nil {
			t.Fatal(err)
		}
	}
	return rts
}

// stealNow runs one status scan and, when it is complete, that scan's
// steal round: the white-box tests' entry point into the master.
func stealNow(t testing.TB, co *coordinator) {
	t.Helper()
	sts, complete, err := co.scan()
	if err != nil {
		t.Fatal(err)
	}
	if complete {
		co.steal(sts)
	}
}

// runCoordinator drives a scripted ControlPlane through the part of
// Cluster.RunJob a fake can answer: the coordinator loop, then
// shutdown.
func runCoordinator(ctx context.Context, ctl ControlPlane, cfg Config) (coordinatorStats, error) {
	co := newCoordinator(ctl, cfg.withDefaults())
	err := co.run(ctx)
	if _, serr := co.shutdown(); err == nil {
		err = serr
	}
	return co.stats(), err
}

// fetchOne is a one-vertex FetchAdjBatch.
func fetchOne(tr Transport, owner int, v graph.V) ([]graph.V, error) {
	out, err := tr.FetchAdjBatch(owner, []graph.V{v}, nil)
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// pinnedRows counts the cached rows some task still holds a pin on.
func (c *vertexCache) pinnedRows() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, e := range c.rows {
		if e.refs > 0 {
			n++
		}
	}
	return n
}
