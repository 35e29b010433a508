package gthinker

import (
	"bytes"
	"encoding/json"
	"testing"

	"gthinkerqc/internal/datagen"
	"gthinkerqc/internal/obs"
)

func spanKindCounts(tr *obs.Trace) map[obs.SpanKind]int {
	counts := map[obs.SpanKind]int{}
	for _, s := range tr.Spans {
		counts[s.Kind]++
	}
	return counts
}

// TestEngineTraceWiring: Config.Trace must thread tracers down to every
// worker and surface the merged timeline in the JobResult, with the
// span accounting visible in the metrics.
func TestEngineTraceWiring(t *testing.T) {
	g := datagen.ErdosRenyi(20, 0.3, 5)
	app := &fanApp{spawnDepth: 2, fanout: 3}
	res := mustRunApp(t, g, app, Config{
		Machines: 2, WorkersPerMachine: 2,
		SpillDir: t.TempDir(), Trace: true,
	})
	met, tr := res.Metrics, res.Trace
	if tr == nil {
		t.Fatal("Config.Trace set but JobResult.Trace is nil")
	}
	counts := spanKindCounts(tr)
	if counts[obs.KindSpawn] == 0 {
		t.Error("no spawn spans recorded")
	}
	if counts[obs.KindCompute] == 0 {
		t.Error("no compute spans recorded")
	}
	if met.TraceSpans == 0 {
		t.Errorf("Metrics.TraceSpans = 0 with %d spans in the trace", len(tr.Spans))
	}
	// Every span carries the cluster pid/tid convention: machine ids
	// plus -1 for the coordinator.
	for _, s := range tr.Spans {
		if s.Pid < -1 || int(s.Pid) >= 2 {
			t.Fatalf("span with out-of-range pid %d: %+v", s.Pid, s)
		}
		if s.Start == 0 {
			t.Fatalf("span with zero timestamp: %+v", s)
		}
	}
	// The merged timeline must render as Chrome trace-event JSON that a
	// viewer will actually parse.
	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace output is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace JSON has no events")
	}
}

// Tracing off is the default and must stay free: no trace object, no
// span accounting.
func TestEngineTraceDisabled(t *testing.T) {
	g := datagen.ErdosRenyi(30, 0.2, 4)
	app := &triApp{g: g}
	res := mustRunApp(t, g, app, Config{
		Machines: 2, WorkersPerMachine: 2, SpillDir: t.TempDir(),
	})
	met := res.Metrics
	if tr := res.Trace; tr != nil {
		t.Fatalf("tracing disabled but JobResult.Trace = %d spans", len(tr.Spans))
	}
	if met.TraceSpans != 0 || met.TraceDropped != 0 {
		t.Fatalf("tracing disabled but span accounting nonzero: %+v", met)
	}
}

// TestEngineTraceInProcessTCP runs the socket composition with tracing
// on: remote pulls cross the wire, so the timeline must include fetch
// spans, and results must match the single-machine ground truth.
func TestEngineTraceInProcessTCP(t *testing.T) {
	g := datagen.ErdosRenyi(300, 0.05, 7)
	want := bruteTriangles(g)
	app := &triApp{g: g}
	res := mustRunApp(t, g, app, Config{
		Machines: 2, WorkersPerMachine: 2,
		SpillDir: t.TempDir(), InProcessTCP: true, Trace: true,
	})
	met, tr := res.Metrics, res.Trace
	if app.count.Load() != want {
		t.Fatalf("triangles = %d, want %d", app.count.Load(), want)
	}
	if tr == nil {
		t.Fatal("JobResult.Trace is nil")
	}
	counts := spanKindCounts(tr)
	if met.RemoteFetches > 0 && counts[obs.KindFetch] == 0 {
		t.Errorf("%d remote fetches but no fetch spans; kinds: %v", met.RemoteFetches, counts)
	}
	if counts[obs.KindCompute] == 0 || counts[obs.KindSpawn] == 0 {
		t.Errorf("missing core span kinds: %v", counts)
	}
	// Spans from both machines must appear on the merged timeline.
	pids := map[int32]bool{}
	for _, s := range tr.Spans {
		pids[s.Pid] = true
	}
	if !pids[0] || !pids[1] {
		t.Errorf("merged trace missing a machine: pids %v", pids)
	}
}
