package main

// metricDef names one metric; BENCHMARK.json carries the same list (a
// test holds the two together) plus each end-to-end metric's bound.
type metricDef struct {
	name, unit string
	higher     bool // higher is better
}

// endToEnd are measured with tracing off, once per workload. A failed
// operation is reported as failed/attempted beside them rather than as a
// metric of its own: the seed's ratio is 0, and a bound is a share of
// the parent's value.
var endToEnd = []metricDef{
	{"p50_ms", "ms", false},
	{"tail_ms", "ms", false},
	{"ops_per_s", "1/s", true},
	{"alloc_mb_per_op", "MB", false},
	{"setup_s", "s", false},
}

// perLayer are measured in the traced pass. A layer that is not on a
// workload's path reports 0 there.
var perLayer = []metricDef{
	{"tile.from_dense_ms", "ms", false},
	{"tile.extract_band_ms", "ms", false},
	{"plan.autoplan_ms", "ms", false},
	{"plan.explore", "count", false},
	{"plan.tuned", "count", true},
	{"plan.promotions", "count", true},
	{"pipeline.build_ms", "ms", false},
	{"pipeline.tasks", "count", false},
	{"ge2bnd.run_ms", "ms", false},
	{"ge2bnd.run1_ms", "ms", false},
	{"ge2bnd.gflops", "GFLOP/s", true},
	{"ge2bnd.par_eff", "ratio", true},
	{"kernels.geqrt_gflops", "GFLOP/s", true},
	{"kernels.unmqr_gflops", "GFLOP/s", true},
	{"kernels.tsmqr_gflops", "GFLOP/s", true},
	{"kernels.ttmqr_gflops", "GFLOP/s", true},
	{"nla.gemm64_gflops", "GFLOP/s", true},
	{"band.build_ms", "ms", false},
	{"band.tasks", "count", false},
	{"band.run_ms", "ms", false},
	{"band.run1_ms", "ms", false},
	{"band.seq_ms", "ms", false},
	{"band.us_per_task", "us", false},
	{"band.gflops", "GFLOP/s", true},
	{"sched.empty_ns_per_task_w1", "ns", false},
	{"sched.empty_ns_per_task_wN", "ns", false},
	{"sched.chain_ns_per_task_wN", "ns", false},
	{"bdsqr.solve_ms", "ms", false},
	{"svd.ge2bnd_rec_ms", "ms", false},
	{"jacobi.svd_ms", "ms", false},
	{"core.apply_left_ms", "ms", false},
	{"core.apply_right_ms", "ms", false},
	{"client.encode_ms", "ms", false},
	{"httpapi.decode_ms", "ms", false},
	{"httpapi.req_mb", "MB", false},
	{"httpapi.resp_kb", "KB", false},
	{"service.do_p50_ms", "ms", false},
	{"service.cachekey_ms", "ms", false},
	{"bidiagd.server_p50_ms", "ms", false},
	{"bidiagd.overhead_p50_ms", "ms", false},
	{"serve.queue_wait_p50_ms", "ms", false},
	{"serve.queue_wait_p95_ms", "ms", false},
	{"serve.cache_hit_ratio", "ratio", true},
	{"serve.gang_jobs", "count", true},
	{"serve.rejected", "count", false},
	{"serve.miss_p50_ms", "ms", false},
	{"serve.hit_p50_ms", "ms", false},
	{"serve.svd_p50_ms", "ms", false},
	{"dist.comm_count", "count", false},
	{"dist.payload_mb", "MB", false},
	{"dist.run_ms", "ms", false},
	{"values.err_eps", "n.eps", false},
	{"svd.residual_eps", "n.eps", false},
	{"svd.orth_u_eps", "n.eps", false},
	{"svd.orth_v_eps", "n.eps", false},
	{"loadgen.late_p95_ms", "ms", false},
	{"trace.overhead_pct", "%", false},
}
