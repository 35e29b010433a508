package main

// metricDef declares one metric the benchmark prints. BENCHMARK.json
// at the root of the repository lists the same names, units,
// directions and bounds; manifest_test.go holds the two together.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may get worse before a change counts as a regression.
	Bound float64
	// Exact names where a count must repeat exactly between two runs of
	// one commit on one seed: a workload, or "all".
	Exact string
}

func (d metricDef) exactOn(workload string) bool {
	return d.Exact == "all" || d.Exact == workload
}

// runSeconds is how long one run measures unless -seconds says
// otherwise.
const runSeconds = 15

// endToEnd is measured with all tracing off. An operation is one full
// mine call, or on serve-shortjobs one served job.
var endToEnd = []metricDef{
	// median of setupReps set-ups: graph, CSR, GQC2, mmap, serial references, pool and server start
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	// median wall time of an operation; on serve-shortjobs the median over cycles of a cycle's mean broad-job latency
	{Name: "op_wall_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	// CPU of this process and its worker processes over the timed section, per operation
	{Name: "op_cpu_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	// operations of every class completed per second of the timed section
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	// peak resident set of this process plus that of each worker process
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
}

// perLayer is measured by the traced run only.
var perLayer = []metricDef{
	{Name: "bench.trace_overhead_ratio", Unit: "ratio", Better: "lower"},

	{Name: "bitset.and_count_w4_ns_per_word", Unit: "ns/word", Better: "lower"},
	{Name: "bitset.and_count_w64_ns_per_word", Unit: "ns/word", Better: "lower"},
	{Name: "bitset.and_count_to_w4_ns_per_word", Unit: "ns/word", Better: "lower"},
	{Name: "bitset.and_count_to_w64_ns_per_word", Unit: "ns/word", Better: "lower"},
	{Name: "bitset.or_with_w4_ns_per_word", Unit: "ns/word", Better: "lower"},

	{Name: "quasiclique.nodes", Unit: "count", Better: "lower", Exact: "all"},
	{Name: "quasiclique.results", Unit: "count", Better: "higher", Exact: "all"},
	{Name: "quasiclique.ns_per_node", Unit: "ns/node", Better: "lower"},
	{Name: "quasiclique.nodes_per_result", Unit: "nodes/result", Better: "lower"},
	{Name: "quasiclique.candidates_per_result", Unit: "cands/result", Better: "lower"},
	{Name: "quasiclique.prepare_graph_ms", Unit: "ms", Better: "lower"},
	{Name: "quasiclique.build_root_sub_us", Unit: "us", Better: "lower"},
	{Name: "quasiclique.make_subtask_us", Unit: "us", Better: "lower"},
	{Name: "quasiclique.filter_maximal_ms", Unit: "ms", Better: "lower"},

	{Name: "graph.build_csr_ms", Unit: "ms", Better: "lower"},
	{Name: "graph.build_edges_per_s", Unit: "edges/s", Better: "higher"},
	{Name: "store.write_gqc2_ms", Unit: "ms", Better: "lower"},
	{Name: "store.map_graph_ms", Unit: "ms", Better: "lower"},
	{Name: "store.gqs1_encode_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "store.gqs1_decode_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "store.gqs1_file_roundtrip_mb_per_s", Unit: "MB/s", Better: "higher"},

	{Name: "gthinker.tasks", Unit: "count", Better: "lower", Exact: "all"},
	{Name: "gthinker.subtasks", Unit: "count", Better: "lower", Exact: "engine-spill"},
	{Name: "gthinker.big_tasks", Unit: "count", Better: "lower"},
	{Name: "gthinker.busy_fraction", Unit: "ratio", Better: "higher"},
	{Name: "gthinker.busy_imbalance", Unit: "ratio", Better: "lower"},
	{Name: "gthinker.compute_share", Unit: "ratio", Better: "higher"},
	{Name: "gthinker.fetch_share", Unit: "ratio", Better: "lower"},
	{Name: "gthinker.spill_share", Unit: "ratio", Better: "lower"},
	{Name: "gthinker.refill_share", Unit: "ratio", Better: "lower"},
	{Name: "gthinker.spawn_share", Unit: "ratio", Better: "lower"},
	{Name: "gthinker.idle_share", Unit: "ratio", Better: "lower"},
	{Name: "gthinker.termination_tail_ms", Unit: "ms", Better: "lower"},
	{Name: "gthinker.spill_mb", Unit: "MB", Better: "lower"},
	{Name: "gthinker.refill_batches", Unit: "count", Better: "lower"},
	{Name: "gthinker.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "gthinker.fetch_round_trips", Unit: "count", Better: "lower"},
	{Name: "gthinker.ids_per_round_trip", Unit: "ids/trip", Better: "higher"},
	{Name: "gthinker.wire_mb", Unit: "MB", Better: "lower"},
	{Name: "gthinker.tasks_stolen", Unit: "count", Better: "higher"},
	{Name: "gthinker.steal_rounds", Unit: "count", Better: "higher"},
	{Name: "gthinker.trace_dropped", Unit: "count", Better: "lower"},
	{Name: "gthinker.fetch_batch1_rtt_us", Unit: "us", Better: "lower"},
	{Name: "gthinker.fetch_batch64_rtt_us", Unit: "us", Better: "lower"},
	{Name: "gthinker.send_tasks_mb_per_s", Unit: "MB/s", Better: "higher"},

	{Name: "miner.outside_engine_ms", Unit: "ms", Better: "lower"},
	{Name: "miner.mining_s", Unit: "s", Better: "lower"},
	{Name: "miner.materialize_share", Unit: "ratio", Better: "lower"},
	{Name: "miner.top_root_share", Unit: "ratio", Better: "lower"},
	{Name: "miner.session_job_floor_ms", Unit: "ms", Better: "lower"},
	{Name: "miner.pool_job_floor_ms", Unit: "ms", Better: "lower"},
	{Name: "miner.pool_start_ms", Unit: "ms", Better: "lower"},

	{Name: "serve.submit_rtt_us", Unit: "us", Better: "lower"},
	{Name: "serve.status_rtt_us", Unit: "us", Better: "lower"},
	{Name: "serve.polls_per_job", Unit: "polls/job", Better: "lower"},
	{Name: "serve.results_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "serve.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "serve.broad_latency_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.broad_latency_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.selective_latency_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.cached_latency_p50_ms", Unit: "ms", Better: "lower"},
}

// manifest is BENCHMARK.json: the contract between this benchmark and
// whatever runs it.
type manifest struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []manifestLoad   `json:"workloads"`
	EndToEnd   []manifestMetric `json:"end_to_end"`
	PerLayer   []manifestMetric `json:"per_layer"`
}

type manifestLoad struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"` // end-to-end metrics only
}

// currentManifest is the manifest this build of the benchmark honours
// (-manifest prints it).
func currentManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, wl := range workloads {
		m.Workloads = append(m.Workloads, manifestLoad{wl.Name, wl.Why})
	}
	for _, d := range endToEnd {
		bound := d.Bound
		m.EndToEnd = append(m.EndToEnd, manifestMetric{d.Name, d.Unit, d.Better, &bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, manifestMetric{d.Name, d.Unit, d.Better, nil})
	}
	return m
}
