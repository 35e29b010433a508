package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/bits"
	"os"
	"path/filepath"
	"sort"
	"time"

	"gthinkerqc/internal/bitset"
	"gthinkerqc/internal/graph"
	"gthinkerqc/internal/gthinker"
	"gthinkerqc/internal/miner"
	"gthinkerqc/internal/obs"
	"gthinkerqc/internal/quasiclique"
	"gthinkerqc/internal/store"
)

// metrics maps a metric name to its measured value.
type metrics map[string]float64

// A traced run reports every layer on every workload. Where the
// workload's own operations pass through a layer, the layer's numbers
// come from those operations, traced; where they do not, the layer is
// probed on the workload's graph and query once the traced operations
// have ended. A number therefore always belongs to the graph of the
// workload it is printed under.

// sink keeps kernel results alive so the calls are not removed.
var sink int

// probeKernels times the word-row kernels on rows of 4 and 64 words
// whose bits are adjacency rows of g folded to the row width.
func probeKernels(g *graph.Graph, m metrics) error {
	const rows = 64
	for _, width := range []int{4, 64} {
		mat := make([][]uint64, rows)
		n := g.NumVertices()
		for i := range mat {
			mat[i] = make([]uint64, width)
			v := graph.V(i * (n / rows))
			bitset.SetBit(mat[i], int(v)%(64*width))
			for _, u := range g.Adj(v) {
				bitset.SetBit(mat[i], int(u)%(64*width))
			}
		}
		want := 0
		for k := range mat[0] {
			want += bits.OnesCount64(mat[0][k] & mat[1][k])
		}
		if got := bitset.AndCount(mat[0], mat[1]); got != want {
			return fmt.Errorf("bitset.AndCount on %d words = %d, scalar count %d", width, got, want)
		}
		dst := make([]uint64, width)
		// One batch applies the kernel to every row pair often enough
		// to last about a millisecond.
		batch := func(kernel func(a, b []uint64)) float64 {
			passes := 4096 / width
			d := timeReps(9, func() {
				for p := 0; p < passes; p++ {
					for i := 0; i+1 < rows; i++ {
						kernel(mat[i], mat[i+1])
					}
				}
			})
			return float64(d) / float64(passes*(rows-1)*width)
		}
		suffix := fmt.Sprintf("_w%d_ns_per_word", width)
		m["bitset.and_count"+suffix] = batch(func(a, b []uint64) { sink += bitset.AndCount(a, b) })
		m["bitset.and_count_to"+suffix] = batch(func(a, b []uint64) { sink += bitset.AndCountTo(dst, a, b) })
		if width == 4 {
			m["bitset.or_with"+suffix] = batch(func(a, b []uint64) { bitset.OrWith(dst, a); bitset.OrWith(dst, b) }) / 2
		}
	}
	return nil
}

// probeQuasiclique reports the serial search of the workload's query
// and times the task-construction steps on its k-core. It returns up to
// spillBatch of the root-task subgraphs, for the codec probes.
func probeQuasiclique(s *state, m metrics) []*quasiclique.Sub {
	q := s.wl.Queries[0]
	ref := s.refs[q]
	par, opt := q.params(), quasiclique.Options{}
	m["quasiclique.nodes"] = float64(ref.nodes)
	m["quasiclique.results"] = float64(ref.results)
	m["quasiclique.ns_per_node"] = float64(ref.mine) / float64(max(ref.nodes, 1))
	m["quasiclique.nodes_per_result"] = float64(ref.nodes) / float64(max(ref.results, 1))
	m["quasiclique.candidates_per_result"] = float64(ref.candidates) / float64(max(ref.results, 1))
	m["quasiclique.filter_maximal_ms"] = ms(ref.filter)

	var gk *graph.Graph
	var kept []graph.V
	m["quasiclique.prepare_graph_ms"] = ms(timeReps(3, func() { gk, kept = quasiclique.PrepareGraph(s.g, par, opt) }))

	var sc quasiclique.Scratch
	perRoot := timeReps(3, func() {
		for _, v := range kept {
			if sub, _ := quasiclique.BuildRootSubScratch(gk, v, par, opt, &sc); sub != nil {
				sink += sub.N()
			}
		}
	})
	m["quasiclique.build_root_sub_us"] = us(perRoot) / float64(max(len(kept), 1))

	var subs []*quasiclique.Sub
	var largest *quasiclique.Sub
	for _, v := range kept {
		sub, _ := quasiclique.BuildRootSub(gk, v, par, opt)
		if sub == nil {
			continue
		}
		if len(subs) < spillBatch {
			subs = append(subs, sub)
		}
		if largest == nil || sub.N() > largest.N() {
			largest = sub
		}
	}

	// The first level of a decomposition of the largest root task:
	// one child per member of ext(S), each over a smaller subgraph.
	m["quasiclique.make_subtask_us"] = 0
	if largest != nil && largest.N() > 2 {
		ext := make([]uint32, largest.N()-1)
		for i := range ext {
			ext[i] = uint32(i + 1)
		}
		level := timeReps(9, func() {
			for i := range ext[:len(ext)-1] {
				child, _, _ := quasiclique.MakeSubtaskScratch(largest, []uint32{0, ext[i]}, ext[i+1:], &sc)
				sink += child.N()
			}
		})
		m["quasiclique.make_subtask_us"] = us(level) / float64(len(ext)-1)
	}
	return subs
}

// spillBatch is how many task records the codec probes put in a batch.
const spillBatch = 256

// encodeSubs writes one GQS1 batch of spillBatch records, each what
// gthinker's spill and steal paths write for a task whose payload is
// sub: id, no pulls, then the payload.
func encodeSubs(enc *store.BatchEncoder, subs []*quasiclique.Sub) []byte {
	enc.Reset()
	for i := 0; i < spillBatch; i++ {
		buf := enc.BeginRecord()
		buf = store.AppendU64(buf, uint64(i+1))
		buf = store.AppendU32(buf, 0)
		buf = store.AppendU32(buf, 1)
		lenAt := len(buf)
		buf = store.AppendU32(buf, 0)
		buf = subs[i%len(subs)].AppendRaw(buf)
		binary.LittleEndian.PutUint32(buf[lenAt:], uint32(len(buf)-lenAt-4))
		enc.EndRecord(buf)
	}
	return enc.Finish()
}

// subCodec decodes the payloads encodeSubs writes.
type subCodec struct{}

func (subCodec) AppendTaskPayload(dst []byte, payload any) ([]byte, error) {
	return payload.(*quasiclique.Sub).AppendRaw(dst), nil
}

func (subCodec) DecodeTaskPayload(data []byte) (any, error) {
	sub := &quasiclique.Sub{}
	return sub, sub.DecodeRaw(store.NewCursor(data))
}

func decodeSubs(d *store.BatchDecoder) error {
	for {
		rec, err := d.Next()
		if err != nil || rec == nil {
			return err
		}
		c := store.NewCursor(rec)
		c.U64()
		c.U32()
		c.U32()
		c.U32()
		var sub quasiclique.Sub
		if err := sub.DecodeRaw(c); err != nil {
			return err
		}
		sink += sub.N()
	}
}

// probeStore times the GQS1 batch codec in memory and through a file
// in the work directory.
func probeStore(s *state, subs []*quasiclique.Sub, m metrics) error {
	m["graph.build_csr_ms"] = ms(s.buildCSR)
	m["graph.build_edges_per_s"] = float64(s.edges) / s.buildCSR.Seconds()
	m["store.write_gqc2_ms"] = ms(s.writeGQC2)
	m["store.map_graph_ms"] = ms(s.mapGraph)

	var enc store.BatchEncoder
	var data []byte
	var err error
	rate := func(d time.Duration) float64 { return float64(len(data)) / 1e6 / d.Seconds() }
	m["store.gqs1_encode_mb_per_s"] = rate(timeReps(9, func() { data = encodeSubs(&enc, subs) }))
	decode := func(d *store.BatchDecoder, derr error) {
		if derr == nil {
			derr = decodeSubs(d)
		}
		if derr != nil && err == nil {
			err = derr
		}
	}
	m["store.gqs1_decode_mb_per_s"] = rate(timeReps(9, func() { decode(store.DecodeBatch(data)) }))
	path := filepath.Join(s.env.WorkDir, "probe.gqs")
	m["store.gqs1_file_roundtrip_mb_per_s"] = rate(timeReps(9, func() {
		if werr := os.WriteFile(path, data, 0o644); werr != nil && err == nil {
			err = werr
		}
		d, _, rerr := store.ReadBatchFile(path)
		decode(d, rerr)
	}))
	os.Remove(path)
	return err
}

// probeTransport times single calls on a vertex server and a task
// server of this process over loopback TCP.
func probeTransport(s *state, subs []*quasiclique.Sub, m metrics) error {
	vs, err := gthinker.ServeVertexTable("127.0.0.1:0", s.g)
	if err != nil {
		return err
	}
	defer vs.Close()
	ts, err := gthinker.ServeTasks("127.0.0.1:0", subCodec{}, func(tasks []*gthinker.Task) {})
	if err != nil {
		return err
	}
	defer ts.Close()
	tr := gthinker.NewTCPTransport([]string{vs.Addr()}, s.g.NumVertices())
	defer tr.Close()
	tr.SetTaskAddrs([]string{ts.Addr()})

	n := s.g.NumVertices()
	ids := make([]graph.V, 64)
	for i := range ids {
		ids[i] = graph.V(i * (n / len(ids)))
	}
	var buf [][]graph.V
	fetch := func(ids []graph.V) func() {
		return func() {
			out, ferr := tr.FetchAdjBatch(0, ids, buf[:0])
			if ferr != nil && err == nil {
				err = ferr
			}
			buf = out
		}
	}
	m["gthinker.fetch_batch1_rtt_us"] = us(timeReps(2000, fetch(ids[:1])))
	m["gthinker.fetch_batch64_rtt_us"] = us(timeReps(1000, fetch(ids)))

	var enc store.BatchEncoder
	batch := encodeSubs(&enc, subs)
	d := timeReps(100, func() {
		if serr := tr.SendTasks(0, batch); serr != nil && err == nil {
			err = serr
		}
	})
	m["gthinker.send_tasks_mb_per_s"] = float64(len(batch)) / 1e6 / d.Seconds()
	return err
}

// probeFloors times a warm job that has nothing to mine, on an
// in-process session and on a pool of worker processes, and the
// pool's start.
func probeFloors(s *state, m metrics) error {
	cfg := miner.Config{Params: s.wl.selective().params()}
	var err error
	job := func(mine func() (*miner.Result, error)) float64 {
		return ms(timeReps(3, func() {
			res, merr := mine()
			if merr == nil && len(res.Cliques) != 0 {
				merr = fmt.Errorf("floor job returned %d results", len(res.Cliques))
			}
			if err == nil {
				err = merr
			}
		}))
	}
	sess := miner.NewSession(s.g, oneMachine(s.env.W))
	m["miner.session_job_floor_ms"] = job(func() (*miner.Result, error) { return sess.Mine(context.Background(), cfg) })
	sess.Close()
	if err != nil {
		return err
	}

	t0 := time.Now()
	pool, perr := miner.StartProcsPool(
		gthinker.Config{Machines: 2, WorkersPerMachine: 1},
		miner.ProcsConfig{GraphPath: s.graphPath, ManifestDir: s.env.WorkDir, Command: miner.QCWorkerCommand(s.env.QCWorker, s.graphPath)})
	if perr != nil {
		return perr
	}
	m["miner.pool_start_ms"] = ms(time.Since(t0))
	m["miner.pool_job_floor_ms"] = job(func() (*miner.Result, error) { return pool.RunJob(context.Background(), cfg) })
	if cerr := pool.Close(); err == nil {
		err = cerr
	}
	return err
}

// engineProbe observes the engine on a workload that does not call
// miner.Mine itself.
func engineProbe(s *state) error {
	cfg, ecfg := s.wl.probeEngine(s.env.W)
	for i := 0; i < 3; i++ {
		if !s.mineEngine(cfg, ecfg).ok {
			return fmt.Errorf("engine probe: miner.Mine failed or differs from the serial reference")
		}
	}
	return nil
}

// spanShares splits the time of the mining threads during one traced
// call, threads x engine wall time in total, into self time per span
// kind, and returns the termination tail: the part of the
// engine's wall time that lies outside the window from its first span
// to its last, which is the wait from the last task finishing to Run
// returning plus the lag before the first worker starts. When the span
// rings overflowed, the first spans are gone: a thread then counts from
// its first retained span, and the tail is what follows the last span
// less the time the call spent outside the engine.
func spanShares(o engineObs) (self map[obs.SpanKind]int64, total int64, tail time.Duration) {
	type trackID struct{ pid, tid int32 }
	tracks := map[trackID][]obs.Span{}
	first, last := o.end.UnixNano(), o.start.UnixNano()
	for _, sp := range o.res.Trace.Spans {
		if sp.Tid < 0 {
			continue // control and coordinator tracks are not mining threads
		}
		id := trackID{sp.Pid, sp.Tid}
		tracks[id] = append(tracks[id], sp)
		first, last = min(first, sp.Start), max(last, sp.Start+sp.Dur)
	}
	wall := o.res.Engine.Wall
	dropped := o.res.Trace.Dropped > 0
	if dropped {
		tail = max(0, o.end.Sub(time.Unix(0, last))-(o.end.Sub(o.start)-wall))
	} else {
		tail = wall - time.Duration(last-first)
	}
	engineEnd := last + int64(tail)

	self = map[obs.SpanKind]int64{}
	for _, spans := range tracks {
		sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
		if dropped {
			total += engineEnd - spans[0].Start
		} else {
			total += int64(wall)
		}
		// A span that starts inside the previous one is its child: its
		// time leaves the parent's self time.
		var stack []obs.Span
		for _, sp := range spans {
			for len(stack) > 0 && sp.Start >= stack[len(stack)-1].Start+stack[len(stack)-1].Dur {
				stack = stack[:len(stack)-1]
			}
			self[sp.Kind] += sp.Dur
			if len(stack) > 0 {
				self[stack[len(stack)-1].Kind] -= sp.Dur
			}
			stack = append(stack, sp)
		}
	}
	// A thread that recorded nothing was idle for the whole run.
	total += int64(o.workers-len(tracks)) * int64(wall)
	return self, total, tail
}

// engineMetrics reports the gthinker and miner layers from traced
// miner.Mine calls: each number is the median over the calls, but for
// the shares, which are taken over all calls together and so sum to 1.
func engineMetrics(calls []engineObs, m metrics) {
	col := map[string][]float64{}
	add := func(name string, v float64) { col[name] = append(col[name], v) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	self := map[obs.SpanKind]int64{}
	var threadTime int64
	for _, o := range calls {
		e := o.res.Engine
		add("gthinker.tasks", float64(e.TasksSpawned))
		add("gthinker.subtasks", float64(e.SubtasksAdded))
		add("gthinker.big_tasks", float64(e.BigTasks))
		add("gthinker.busy_fraction", ratio(e.TotalBusy().Seconds(), float64(o.workers)*e.Wall.Seconds()))
		add("gthinker.busy_imbalance", e.BusyImbalance())
		add("gthinker.spill_mb", float64(e.SpillBytesWritten)/1e6)
		add("gthinker.refill_batches", float64(e.RefillBatches))
		add("gthinker.cache_hit_ratio", ratio(float64(e.CacheHits), float64(e.CacheHits+e.CacheMisses)))
		add("gthinker.fetch_round_trips", float64(e.BatchedFetches))
		add("gthinker.ids_per_round_trip", ratio(float64(e.RemoteFetches), float64(e.BatchedFetches)))
		add("gthinker.wire_mb", float64(e.WireBytesSent+e.WireBytesReceived)/1e6)
		add("gthinker.tasks_stolen", float64(e.TasksStolen))
		add("gthinker.steal_rounds", float64(e.StealRounds))
		add("gthinker.trace_dropped", float64(o.res.Trace.Dropped))

		callSelf, total, tail := spanShares(o)
		for kind, ns := range callSelf {
			self[kind] += ns
		}
		threadTime += total
		add("gthinker.termination_tail_ms", ms(tail))

		mining, mater := o.res.Recorder.TotalMining(), o.res.Recorder.TotalMaterialize()
		add("miner.outside_engine_ms", ms(o.end.Sub(o.start)-e.Wall))
		add("miner.mining_s", mining.Seconds())
		add("miner.materialize_share", ratio(mater.Seconds(), (mining+mater).Seconds()))
		top := 0.0
		if roots := o.res.Recorder.TopK(1); len(roots) > 0 {
			top = ratio(roots[0].Mining.Seconds(), mining.Seconds())
		}
		add("miner.top_root_share", top)
	}
	for name, vs := range col {
		m[name] = median(vs)
	}
	idle := 1.0
	for kind, name := range map[obs.SpanKind]string{
		obs.KindCompute: "gthinker.compute_share",
		obs.KindFetch:   "gthinker.fetch_share",
		obs.KindSpill:   "gthinker.spill_share",
		obs.KindRefill:  "gthinker.refill_share",
		obs.KindSpawn:   "gthinker.spawn_share",
	} {
		m[name] = float64(self[kind]) / float64(threadTime)
		idle -= m[name]
	}
	m["gthinker.idle_share"] = idle
}

// serveMetrics reports the serve layer from the jobs a client saw.
func serveMetrics(jobs []jobObs, m metrics) {
	var submit, status, rate []float64
	byClass := map[string][]float64{}
	polls, cached := 0, 0
	for _, j := range jobs {
		submit = append(submit, us(j.submit))
		if j.polls > 0 {
			status = append(status, us(j.statusRTT)/float64(j.polls))
		}
		if j.resultSize > 0 {
			rate = append(rate, float64(j.resultSize)/1e6/j.resultTime.Seconds())
		}
		polls += j.polls
		if j.cached {
			cached++
		}
		byClass[j.class] = append(byClass[j.class], ms(j.total))
	}
	n := float64(max(len(jobs), 1))
	m["serve.submit_rtt_us"] = median(submit)
	m["serve.status_rtt_us"] = median(status)
	m["serve.polls_per_job"] = float64(polls) / n
	m["serve.results_mb_per_s"] = median(rate)
	m["serve.cache_hit_ratio"] = float64(cached) / n
	m["serve.broad_latency_p50_ms"] = median(byClass[classBroad])
	m["serve.broad_latency_p90_ms"] = quantile(byClass[classBroad], 0.9)
	m["serve.selective_latency_p50_ms"] = median(byClass[classSelective])
	m["serve.cached_latency_p50_ms"] = median(byClass[classCached])
}
