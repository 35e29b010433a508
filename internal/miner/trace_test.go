package miner

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"gthinkerqc/internal/gthinker"
	"gthinkerqc/internal/obs"
	"gthinkerqc/internal/quasiclique"
)

// TestMineChaosKillTraced reruns the worker-kill recovery scenario with
// span tracing on: the merged timeline must record the recovery, render
// as valid Chrome trace-event JSON, and carry spans from every surviving
// process track — all without perturbing result correctness.
func TestMineChaosKillTraced(t *testing.T) {
	g, want := chaosGraph(t)
	cfg := Config{
		Params:  quasiclique.Params{Gamma: 0.8, MinSize: 7},
		TauTime: time.Nanosecond, TauSplit: 4,
	}
	// chaosMine's exact shape, plus Trace: the same seeded kill plan as
	// TestMineChaosKillRecovers so the recovery path is deterministic.
	ecfg := gthinker.Config{
		Machines: 2, WorkersPerMachine: 2, SpillDir: t.TempDir(),
		InProcessTCP:   true,
		StatusInterval: 2 * time.Millisecond,
		DeadAfterPolls: 3,
		FrameTimeout:   2 * time.Second,
		FaultSpec:      "5:kill=1@2",
		Trace:          true,
	}
	type outcome struct {
		res *Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := Mine(g, cfg, ecfg)
		done <- outcome{res, err}
	}()
	var res *Result
	select {
	case o := <-done:
		if o.err != nil {
			t.Fatalf("traced run did not survive the worker kill: %v", o.err)
		}
		res = o.res
	case <-time.After(90 * time.Second):
		t.Fatal("traced kill plan hung the run")
	}

	// Tracing must not change what gets mined.
	if !quasiclique.SetsEqual(res.Cliques, want) {
		t.Fatalf("traced post-recovery results diverge from serial: got %d cliques, want %d",
			len(res.Cliques), len(want))
	}
	if res.Engine.Recoveries != 1 || res.Engine.DeadMachines != 1 {
		t.Fatalf("want exactly one recovery, got recover=%d/%d",
			res.Engine.Recoveries, res.Engine.DeadMachines)
	}

	tr := res.Trace
	if tr == nil {
		t.Fatal("ecfg.Trace set but Result.Trace is nil")
	}
	counts := map[obs.SpanKind]int{}
	pids := map[int32]bool{}
	for _, s := range tr.Spans {
		counts[s.Kind]++
		pids[s.Pid] = true
	}
	// The coordinator records the recovery it drove; the surviving
	// machine records the peer-side adoption.
	if counts[obs.KindRecover] == 0 {
		t.Errorf("merged timeline has no recover span; kinds: %v", counts)
	}
	if counts[obs.KindCompute] == 0 || counts[obs.KindSpawn] == 0 {
		t.Errorf("merged timeline missing mining spans; kinds: %v", counts)
	}
	// Coordinator (-1) plus at least the surviving machine must appear.
	if !pids[-1] {
		t.Errorf("no coordinator spans in merged trace; pids: %v", pids)
	}
	if !pids[0] && !pids[1] {
		t.Errorf("no machine spans in merged trace; pids: %v", pids)
	}

	// The timeline must serialize into Chrome trace-event JSON a viewer
	// will parse.
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
	if len(doc.TraceEvents) < len(tr.Spans) {
		t.Fatalf("trace JSON has %d events for %d spans", len(doc.TraceEvents), len(tr.Spans))
	}
	for _, ev := range doc.TraceEvents {
		if pid, ok := ev["pid"].(float64); !ok || pid < 0 {
			t.Fatalf("trace event with missing or negative pid: %v", ev)
		}
	}
}
