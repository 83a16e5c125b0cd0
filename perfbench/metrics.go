package main

// metricDef names one printed metric and its unit. These lists are the
// ones BENCHMARK.json declares; the self-test keeps the two in step.
type metricDef struct {
	name, unit string
}

// endToEnd is printed by an untraced run of every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"sim_mcycles_per_s", "Mcycles/s"},
	{"call_s", "s"},
}

// perLayer is printed by a traced run of every workload. A layer the
// workload bypasses reads 0.
var perLayer = []metricDef{
	{"sim.events", "count"},
	{"sim.ns_per_event", "ns"},

	{"core.cycles", "count"},
	{"core.committed_ops", "count"},
	{"core.stall_cycles", "count"},
	{"core.hazard_cycles", "count"},
	{"core.ns_per_cycle", "ns"},
	{"core.elaborate_s", "s"},
	{"core.elab_hit_ratio", "ratio"},

	{"mem.spm.accesses", "count"},
	{"mem.spm.bank_conflict_cycles", "count"},
	{"mem.cache.hit_ratio", "ratio"},
	{"mem.cache.mshr_stall_cycles", "count"},
	{"mem.dram.row_hit_ratio", "ratio"},
	{"mem.dma.bytes", "B"},
	{"mem.xbar.routed", "count"},
	{"mem.stream.stalls", "count"},

	{"salam.session_build_s", "s"},
	{"salam.session_run_s", "s"},
	{"salam.soc_build_s", "s"},
	{"salam.soc_run_s", "s"},
	{"salam.pool_reuse_ratio", "ratio"},
	{"salam.resume_s", "s"},

	{"ir.parse_s", "s"},
	{"kernels.build_s", "s"},
	{"soccfg.parse_s", "s"},

	{"analysis.analyze_s", "s"},
	{"analysis.bound_s", "s"},
	{"analysis.cache_hit_ratio", "ratio"},
	{"analysis.lb_gap", "ratio"},

	{"campaign.sweep_s", "s"},
	{"campaign.points_per_s", "points/s"},
	{"campaign.pruned_ratio", "ratio"},
	{"campaign.sessions_reused", "count"},

	{"search.run_s", "s"},
	{"search.evaluated_ratio", "ratio"},
	{"search.simulated", "count"},
	{"search.proxy_runs", "count"},
	{"search.pruned_ratio", "ratio"},

	{"sample.run_s", "s"},
	{"sample.err_pct", "%"},
	{"sample.error_bound_pct", "%"},
	{"sample.detailed_ops_ratio", "ratio"},

	{"snapshot.restore_run_s", "s"},
	{"snapshot.checkpoint_s", "s"},
	{"snapshot.encode_s", "s"},
	{"snapshot.decode_s", "s"},
	{"snapshot.restore_s", "s"},
	{"snapshot.image_bytes", "B"},

	{"runtime.peak_rss_mb", "MB"},
	{"runtime.allocs_per_kcycle", "allocs/kcycle"},
	{"runtime.alloc_mb_per_point", "MB/point"},
	{"runtime.live_heap_growth_mb", "MB"},

	{"timeline.issue", "cycles"},
	{"timeline.stall.mem", "cycles"},
	{"timeline.stall.fu", "cycles"},
	{"timeline.stall.fetch", "cycles"},
	{"timeline.stall.operand", "cycles"},

	{"trace.overhead_pct", "%"},

	{"self.bench_s", "s"},
	{"self.kernels_s", "s"},
	{"self.ir_s", "s"},
	{"self.soccfg_s", "s"},
	{"self.core_s", "s"},
	{"self.analysis_s", "s"},
	{"self.salam_s", "s"},
	{"self.snapshot_s", "s"},
	{"self.campaign_s", "s"},
	{"self.search_s", "s"},
}
