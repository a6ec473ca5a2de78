package main

// metricDef names one reported metric and its unit. The lists below are the
// benchmark's whole output vocabulary; BENCHMARK.json must name exactly the
// same metrics (checked by TestCatalogMatchesBenchmarkJSON).
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, printed by untraced
// runs. Every workload reports every one of them; README.md defines each
// per workload kind.
var endToEnd = []metricDef{
	{"solve_ms_p50", "ms"},
	{"solve_ms_tail", "ms"},
	{"gflops", "GFLOP/s"},
	{"job_ms_p50", "ms"},
	{"job_ms_tail", "ms"},
	{"goodput_jobs_s", "1/s"},
	{"ok_ratio", "ratio"},
	{"setup_s", "s"},
	{"alloc_mb_per_op", "MB"},
	{"rss_peak_mb", "MB"},
}

// perLayer are the single-layer metrics of the traced pass, named
// <module>.<metric>. A layer a workload does not exercise reads zero.
var perLayer = []metricDef{
	{"core.build_ms", "ms"},
	{"core.gather_ms", "ms"},
	{"core.autoplan_ms", "ms"},
	{"ptg.tasks", "count"},
	{"ptg.deps", "count"},
	{"runtime.exec_ms", "ms"},
	{"runtime.task_ms.init", "ms"},
	{"runtime.task_ms.interior", "ms"},
	{"runtime.task_ms.boundary", "ms"},
	{"runtime.comm_ms", "ms"},
	{"runtime.overhead_us_per_task", "us"},
	{"runtime.parks", "count"},
	{"runtime.steals", "count"},
	{"runtime.pool_ns_per_op", "ns"},
	{"grid.pack_ns_per_kb", "ns/KB"},
	{"grid.unpack_ns_per_kb", "ns/KB"},
	{"grid.halo_mb", "MB"},
	{"stencil.ns_per_point", "ns"},
	{"stencil.points", "count"},
	{"stencil.share", "ratio"},
	{"netcomm.frames", "count"},
	{"netcomm.wire_mb", "MB"},
	{"netcomm.dist_tax_ms", "ms"},
	{"desim.sim_ms", "ms"},
	{"server.queue_ms_p50", "ms"},
	{"server.exec_ms_p50.real", "ms"},
	{"server.exec_ms_p50.auto", "ms"},
	{"server.exec_ms_p50.sim", "ms"},
	{"server.executed", "count"},
	{"gateway.submit_ms_p50", "ms"},
	{"gateway.queue_ms_p50", "ms"},
	{"gateway.relay_ms_p50", "ms"},
	{"gateway.hit_ms_p50", "ms"},
	{"gateway.hit_share", "ratio"},
	{"bench.late_ms_max", "ms"},
	{"bench.trace_overhead", "ratio"},
	{"bench.unattributed_ms", "ms"},
	{"bench.geometry_reuse_share", "ratio"},
	{"bench.fail_ratio", "ratio"},
}

func known(name string) bool {
	for _, l := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range l {
			if d.name == name {
				return true
			}
		}
	}
	return false
}
