package main

import "encoding/json"

// This file is the benchmark's contract: the workloads, the end-to-end
// metrics with their regression bounds, and the per-layer metrics. The
// repository's BENCHMARK.json is `manetbench -spec` verbatim; a test keeps
// the two identical.

// runSeconds is the measuring time BENCHMARK.json asks the driver to pass as
// --seconds. Block counts are derived from --seconds and each workload's
// nominal block time, never from the clock, so a seed and a --seconds value
// fix the work done exactly.
const runSeconds = 15

// metricSpec describes one reported number.
type metricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

func bound(b float64) *float64 { return &b }

// endToEnd lists what a user of the system sees. Every workload reports
// every one of them from an untraced run. A bound holds for every workload,
// so the workload on which the metric is widest sets it: over ten seeds on
// the sizing box each metric's quartile spread reached 8 % to 23 % on some
// workload (README.md, "Bounds and the evidence behind them"), three times
// which is the contract's ceiling of 0.25 or beyond it.
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: bound(0.25)},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: bound(0.25)},
	{Name: "cpu_us_per_op", Unit: "us", Better: "lower", Bound: bound(0.25)},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: bound(0.25)},
	{Name: "query_p50_ms", Unit: "ms", Better: "lower", Bound: bound(0.25)},
	{Name: "query_p99_ms", Unit: "ms", Better: "lower", Bound: bound(0.25)},
	{Name: "air_bytes_per_op", Unit: "B", Better: "lower", Bound: bound(0.25)},
}

var workloads = []workloadSpec{
	{"sim_bf_100", "the paper's largest network (100 devices, BF flood, waypoint mobility, on-demand AODV): sim, radio, aodv and manet do nearly all the work, localsky almost none"},
	{"sim_df_100", "the same scenario under depth-first forwarding: unicast, acks and subtree timers in place of broadcast and AODV return, so a BF-side gain that costs DF shows"},
	{"sim_bf_30k", "30 000 devices: memory layout, the epoch grid, mobility.Field, flood-installed routes and per-link queues do the work, AODV discovery does none; it owns peak_rss_mb"},
	{"local_ac_25", "static 5x5 distributed query over 50 000 anti-correlated 3-D tuples: the only workload where storage, localsky and core.Merge dominate and simulator and sockets idle"},
	{"live_rr_9", "nine tcp.Peers on loopback, one closed-loop client, originators round-robin: the small-message regime where per-frame cost in wire and tcp sets latency; the only real per-query latencies"},
}

// perLayer lists the traced run's numbers as layer.metric. Counts and
// statistics of the workload's own traced blocks are 0 on a workload that
// never enters the layer; probe timings (fixed-count loops over one public
// function, inputs made from the seed) are reported by every workload.
var perLayer = func() []metricSpec {
	list := func(better string) func(unit string, names ...string) []metricSpec {
		return func(unit string, names ...string) (ms []metricSpec) {
			for _, n := range names {
				ms = append(ms, metricSpec{Name: n, Unit: unit, Better: better})
			}
			return ms
		}
	}
	lower, higher := list("lower"), list("higher")
	var all []metricSpec
	for _, ms := range [][]metricSpec{
		lower("ms", "gen.generate_ms"),
		lower("us", "storage.new_hybrid_us"),
		lower("ns", "storage.range_candidates_ns"),
		lower("B", "storage.mem_bytes_per_tuple"),
		lower("us", "localsky.hybrid_scratch_us"),
		lower("count", "localsky.comparisons_per_call"),
		lower("ns", "localsky.ns_per_comparison"),
		lower("count", "localsky.allocs_per_call"),
		lower("us", "core.originate_us", "core.process_us", "core.merge_us"),
		lower("ns", "core.select_filter_ns"),
		lower("count", "core.tuples_shipped_per_query"),
		higher("ratio", "core.drr"),
		lower("count", "sim.events_per_query"),
		higher("1/s", "sim.events_per_s"),
		lower("ns", "sim.ns_per_event_bare"),
		lower("count", "sim.allocs_per_event"),
		lower("ns", "radio.neighbors_into_ns_100", "radio.neighbors_into_ns_30k",
			"radio.broadcast_ns", "radio.unicast_ns"),
		lower("count", "radio.frames_per_query", "radio.receptions_per_query"),
		lower("B", "radio.bytes_per_query"),
		lower("count", "radio.drops_per_query", "radio.neighbor_scanned_per_lookup"),
		lower("ns", "mobility.waypoint_pos_ns", "mobility.field_pos_ns"),
		lower("B", "mobility.bytes_per_node"),
		lower("count", "aodv.rreq_per_query", "aodv.rrep_per_query",
			"aodv.data_forwarded_per_query", "aodv.data_dropped_per_query"),
		lower("B", "aodv.control_bytes_per_query"),
		lower("us", "aodv.discovery_us"),
		lower("ms", "manet.run_ms"),
		lower("count", "manet.messages_per_query"),
		higher("ratio", "manet.completion_share"),
		lower("s", "manet.sim_response_s_mean"),
		lower("ms", "manet.sf_run_ms"),
		higher("ratio", "manet.budget_explained_share"),
		lower("ratio", "manet.trace_overhead_share"),
		lower("ns", "wire.encode_query_ns", "wire.decode_query_ns",
			"wire.encode_result_8_ns", "wire.decode_result_8_ns",
			"wire.encode_result_512_ns", "wire.decode_result_512_ns",
			"wire.write_frame_ns", "wire.read_frame_ns"),
		lower("count", "wire.allocs_per_roundtrip"),
		lower("ms", "tcp.fleet_start_ms"),
		lower("count", "tcp.frames_per_query"),
		lower("B", "tcp.bytes_per_query"),
		lower("us", "tcp.enqueue_us", "tcp.write_us", "tcp.decode_us",
			"tcp.handle_us", "tcp.reply_us"),
		lower("count", "tcp.dup_results_per_query", "tcp.send_retries",
			"tcp.dead_letters", "tcp.dials"),
		lower("ratio", "tcp.trace_overhead_share"),
		lower("ns", "gateway.do_hit_ns"),
		lower("us", "gateway.do_miss_us", "gateway.server_hit_us"),
		lower("count", "runtime.allocs_per_op"),
		lower("B", "runtime.alloc_bytes_per_op"),
		lower("count", "runtime.gc_cycles"),
		lower("ms", "runtime.gc_pause_ms"),
	} {
		all = append(all, ms...)
	}
	return all
}()

// exactRepeat names the counts made by the program that the same seed and
// --seconds must reproduce digit for digit. The simulator's byte counts are
// not among them: two runs of one scenario seed differ by a frame or two.
var exactRepeat = map[[2]string]bool{{"local_ac_25", "air_bytes_per_op"}: true}

// specJSON renders BENCHMARK.json.
func specJSON() []byte {
	spec := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadSpec `json:"workloads"`
		EndToEnd   []metricSpec   `json:"end_to_end"`
		PerLayer   []metricSpec   `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	out, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		panic(err) // the spec is a literal: it always marshals
	}
	return append(out, '\n')
}
