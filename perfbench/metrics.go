package main

// metricSpec declares one reported metric: its unit, which direction is
// better, and — for per-layer metrics — the end-to-end metric and workload
// it is expected to move. The same table orders the printed report, fills
// the result line and is printed by -describe, so BENCHMARK.json, the
// ledger description and the output cannot drift apart.
type metricSpec struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	bound  float64
	moves  string
}

// endToEnd are the metrics a user of the engine or the service sees. Every
// workload reports every one of them (see the README in this directory for
// how each is defined per workload). Each bound is the share by which the
// median may worsen. The timed metrics take the largest bound allowed,
// 0.25: they are CPU times, which the host's neighbours still move by
// 10–20% between runs. The QoR bounds are at least three times their
// largest quartile spread over ten seeds.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25, ""},
	{"jobs_per_s", "1/s", "higher", 0.25, ""},
	{"job_ms.p50", "ms", "lower", 0.25, ""},
	{"job_ms.p90", "ms", "lower", 0.25, ""},
	{"req_ms.p50", "ms", "lower", 0.25, ""},
	{"req_ms.p99", "ms", "lower", 0.25, ""},
	{"goodput_rps", "1/s", "higher", 0.25, ""},
	{"peak_rss_mb", "MB", "lower", 0.25, ""},
	{"qor.latency_ps", "ps", "lower", 0.15, ""},
	{"qor.skew_ps", "ps", "lower", 0.25, ""},
	{"qor.buffers", "count", "lower", 0.1, ""},
	{"qor.ntsvs", "count", "lower", 0.1, ""},
	{"qor.wirelength_mm", "mm", "lower", 0.05, ""},
	{"qor.max_stage_load_ff", "fF", "lower", 0.1, ""},
}

// perLayer are the traced run's metrics. Times named busy_ms are summed
// span durations divided by the jobs of the run (ms per job).
var perLayer = []metricSpec{
	{"bench.generate_ms", "ms", "lower", 0, "setup_s @ all"},
	{"cluster.busy_ms", "ms", "lower", 0, "job_ms.p50 @ table2-mono"},
	{"dme.busy_ms", "ms", "lower", 0, "job_ms.p50 @ table2-mono"},
	{"insert.busy_ms", "ms", "lower", 0, "job_ms.p50, job_ms.p90, qor.* @ table2-mono"},
	{"insert.solutions", "count", "lower", 0, "job_ms.p50, job_ms.p90, qor.* @ table2-mono"},
	{"insert.nodes", "count", "lower", 0, "job_ms.p50, job_ms.p90, qor.* @ table2-mono"},
	{"refine.busy_ms", "ms", "lower", 0, "job_ms.p90, qor.skew_ps @ table2-mono"},
	{"refine.attempted", "count", "lower", 0, "job_ms.p90, qor.skew_ps @ table2-mono"},
	{"refine.inserted", "count", "lower", 0, "job_ms.p90, qor.skew_ps @ table2-mono"},
	{"refine.accept_ratio", "ratio", "higher", 0, "job_ms.p90, qor.skew_ps @ table2-mono"},
	{"eval.busy_ms", "ms", "lower", 0, "job_ms.p50 @ table2-mono"},
	{"eval.calls", "count", "lower", 0, "job_ms.p50 @ table2-mono"},
	{"corner.busy_ms", "ms", "lower", 0, "job_ms.p90 @ table2-mono"},
	{"partition.split_ms", "ms", "lower", 0, "job_ms.p90 @ xl-eco"},
	{"partition.regions", "count", "lower", 0, "job_ms.p90 @ xl-eco"},
	{"core.region_ms.p50", "ms", "lower", 0, "job_ms.p90, jobs_per_s @ xl-eco"},
	{"core.region_ms.max", "ms", "lower", 0, "job_ms.p90, jobs_per_s @ xl-eco"},
	{"core.region_wait_ms", "ms", "lower", 0, "job_ms.p90, jobs_per_s @ xl-eco"},
	{"core.stitch_ms", "ms", "lower", 0, "job_ms.p90, jobs_per_s @ xl-eco"},
	{"core.self_ms", "ms", "lower", 0, "job_ms.p50 @ table2-mono, xl-eco"},
	{"eco.apply_ms", "ms", "lower", 0, "job_ms.p50 @ xl-eco"},
	{"eco.plan_ms", "ms", "lower", 0, "job_ms.p50 @ xl-eco"},
	{"eco.resynth_ms", "ms", "lower", 0, "job_ms.p50 @ xl-eco"},
	{"eco.dirty_ratio", "ratio", "lower", 0, "job_ms.p50 @ xl-eco"},
	{"eco.reused_sinks_ratio", "ratio", "higher", 0, "job_ms.p50 @ xl-eco"},
	{"eco.full_fallbacks", "count", "lower", 0, "job_ms.p50 @ xl-eco"},
	{"eco.overhead_ms", "ms", "lower", 0, "job_ms.p50 @ xl-eco"},
	{"serve.http_ms", "ms", "lower", 0, "req_ms.p50 @ serve-http; none @ table2-mono"},
	{"serve.queue_ms", "ms", "lower", 0, "req_ms.p99, goodput_rps @ serve-http"},
	{"serve.run_ms", "ms", "lower", 0, "req_ms.p99, goodput_rps @ serve-http"},
	{"serve.cache.hit_ratio", "ratio", "higher", 0, "req_ms.p99, goodput_rps @ serve-http"},
	{"serve.dup_miss_ratio", "ratio", "lower", 0, "req_ms.p99, goodput_rps @ serve-http"},
	{"serve.resp_kb", "KB", "lower", 0, "req_ms.p99, goodput_rps @ serve-http"},
	{"serve.rejected", "count", "lower", 0, "failed @ serve-http"},
	{"serve.timeouts", "count", "lower", 0, "failed @ serve-http"},
	{"runtime.alloc_mb_per_job", "MB", "lower", 0, "peak_rss_mb @ all; job_ms.p90 @ xl-eco"},
	{"runtime.allocs_per_job", "count", "lower", 0, "peak_rss_mb @ all; job_ms.p90 @ xl-eco"},
	{"runtime.gc_cycles", "count", "lower", 0, "peak_rss_mb @ all; job_ms.p90 @ xl-eco"},
	{"runtime.gc_pause_ms", "ms", "lower", 0, "peak_rss_mb @ all; job_ms.p90 @ xl-eco"},
	{"signoff.maxcap_violations", "count", "lower", 0, "qor.max_stage_load_ff @ xl-eco"},
	{"trace.overhead_pct", "%", "lower", 0, "validity @ all"},
	{"trace.coverage", "ratio", "higher", 0, "validity @ all"},
}
