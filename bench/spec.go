package main

// This file is the benchmark's contract in code: the workloads and every
// metric name, unit and direction. BENCHMARK.json at the repository root
// states the same lists for the driver; a test keeps the two equal.

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end metrics only
}

const (
	binC1Unique      = "bin_c1_unique"
	httpC2Repeat     = "http_c2_repeat"
	fleetC1Zipf      = "fleet_c1_zipf"
	offlineTrainEval = "offline_train_eval"
)

var workloads = []workloadSpec{
	{binC1Unique, "1 binary client, every user new: the latency floor, where core/nn/mat are most of the time and codec, coalescer and cache almost none"},
	{httpC2Repeat, "2 JSON/HTTP clients, 90% repeat users: JSON codec, coalescer wait and the warm state path dominate and the preference pass is mostly skipped"},
	{fleetC1Zipf, "1 client through the router to 2 replicas, Zipf users: the router hop is most of the latency and hash affinity is what makes the caches hit"},
	{offlineTrainEval, "train one epoch then evaluate RAPID, MMR and DPP: the tape/backward kernels, legacy Scores forward, diversify and metrics that serving never touches"},
}

// runSeconds is BENCHMARK.json's run_seconds: the length of the measured
// phase the driver asks for, and the default of -seconds.
const runSeconds = 20

// The measured phase is always this many slices; -seconds sets their length.
const (
	measuredSlices = 60
	tracedSlices   = 16
)

var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p90_ms", "ms", "lower", 0.25},
	{"throughput_lists_per_s", "1/s", "higher", 0.25},
	{"cpu_ms_per_list", "ms", "lower", 0.25},
	{"allocs_per_list", "count", "lower", 0.06},
	{"mem_rss_mb", "MB", "lower", 0.15},
}

var perLayer = []metricSpec{
	{"machine.ref_kernel_ms_p50", "ms", "lower", 0},
	{"machine.ref_kernel_ms_p90", "ms", "lower", 0},
	{"machine.valid_slice_ratio", "ratio", "higher", 0},
	{"machine.trace_overhead_ratio", "ratio", "lower", 0},

	{"client.lists_attempted", "count", "higher", 0},
	{"client.lists_failed", "count", "lower", 0},
	{"client.latency_raw_p50_ms", "ms", "lower", 0},
	{"client.latency_p99_ms", "ms", "lower", 0},
	{"client.transport_self_us_p50", "us", "lower", 0},

	{"router.self_us_p50", "us", "lower", 0},
	{"router.self_us_p99", "us", "lower", 0},
	{"router.attempts_per_request", "ratio", "lower", 0},
	{"router.affinity_ratio", "ratio", "higher", 0},

	{"serve.pre_us_p50", "us", "lower", 0},
	{"serve.post_us_p50", "us", "lower", 0},
	{"serve.json_decode_us", "us", "lower", 0},
	{"serve.json_encode_us", "us", "lower", 0},
	{"serve.req_bytes_per_list", "bytes", "lower", 0},
	{"serve.resp_bytes_per_list", "bytes", "lower", 0},
	{"serve.handler_direct_us_p50", "us", "lower", 0},
	{"serve.handler_direct_allocs", "count", "lower", 0},

	{"binproto.encode_request_us", "us", "lower", 0},
	{"binproto.decode_request_us", "us", "lower", 0},
	{"binproto.encode_response_us", "us", "lower", 0},
	{"binproto.decode_response_us", "us", "lower", 0},
	{"binproto.codec_allocs_per_list", "count", "lower", 0},
	{"binproto.frame_bytes_per_list", "bytes", "lower", 0},
	{"binproto.nonscoring_us_p50", "us", "lower", 0},

	{"engine.rerank_direct_us_p50", "us", "lower", 0},
	{"engine.rerank_direct_allocs", "count", "lower", 0},
	{"engine.to_instance_us", "us", "lower", 0},
	{"engine.rerank_batch16_us_per_list", "us", "lower", 0},
	{"engine.self_us_p50", "us", "lower", 0},
	{"engine.coalesce_wait_us_p50", "us", "lower", 0},
	{"engine.coalesce_wait_us_p99", "us", "lower", 0},
	{"engine.batch_size_mean", "count", "higher", 0},
	{"engine.cache_hit_ratio", "ratio", "higher", 0},
	{"engine.shed_total", "count", "lower", 0},
	{"engine.degraded_total", "count", "lower", 0},

	{"core.score_us_per_list_p50", "us", "lower", 0},
	{"core.score_batch1_us", "us", "lower", 0},
	{"core.score_batch16_us_per_list", "us", "lower", 0},
	{"core.encode_user_state_us", "us", "lower", 0},
	{"core.score_warm_batch1_us", "us", "lower", 0},
	{"core.score_batch1_allocs", "count", "lower", 0},
	{"core.score_batch16_allocs_per_list", "count", "lower", 0},
	{"core.legacy_scores_us", "us", "lower", 0},
	{"core.legacy_scores_allocs", "count", "lower", 0},

	{"mat.matmul_step_ns", "ns", "lower", 0},
	{"mat.matmul_batch16_ns", "ns", "lower", 0},
	{"mat.matmul_256_serial_ns", "ns", "lower", 0},
	{"mat.matmul_256_parallel_ns", "ns", "lower", 0},
	{"mat.madds_per_list", "count", "lower", 0},
	{"nn.bilstm_list20_us", "us", "lower", 0},

	{"rerank.train_epoch_ms_p50", "ms", "lower", 0},
	{"rerank.train_lists_per_s", "1/s", "higher", 0},
	{"rerank.train_allocs_per_list", "count", "lower", 0},
	{"rerank.train_parallel_speedup", "ratio", "higher", 0},
	{"experiments.evaluate_lists_per_s", "1/s", "higher", 0},
	{"experiments.evaluate_allocs_per_list", "count", "lower", 0},
	{"diversify.mmr_us_per_list", "us", "lower", 0},
	{"diversify.dpp_us_per_list", "us", "lower", 0},
	{"metrics.per_list_us", "us", "lower", 0},
}

func knownWorkload(name string) bool {
	for _, w := range workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}
