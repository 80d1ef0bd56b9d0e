package main

// The metric lists BENCHMARK.json declares, in its order. Every workload
// prints every end-to-end metric (untraced) and every per-layer metric
// (traced); a per-layer metric of a layer the workload does not reach
// reads 0. TestMetricListsMatchBenchmarkJSON keeps the two in step.

// endToEnd lists the end-to-end metrics: name and unit.
var endToEnd = [][2]string{
	{"setup_s", "s"},
	{"heap_mb", "MB"},
	{"throughput_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
}

// perLayer lists the per-layer metrics: name and unit.
var perLayer = [][2]string{
	// serve, request path (gw_*)
	{"serve.outside_forward_us_p50", "us"},
	{"serve.outside_forward_us_p99", "us"},
	{"serve.forward_us_p50", "us"},
	{"serve.forward_us_p99", "us"},
	{"serve.backend_service_us_p50", "us"},
	{"serve.error_ratio", "ratio"},
	{"serve.conn_opened", "count"},
	{"serve.conn_reuse_ratio", "ratio"},
	{"serve.admission_admitted", "count"},
	{"serve.admission_denied", "count"},
	{"serve.backend_rejects", "count"},
	{"serve.backend_errors", "count"},
	{"serve.retry_denied", "count"},
	{"serve.backend_busy_ratio", "ratio"},
	{"serve.split_max_dev", "ratio"},
	// serve, state and control (gw_population)
	{"serve.newgateway_s", "s"},
	{"serve.heap_after_setup_mb", "MB"},
	{"serve.alias_classes", "count"},
	{"serve.install_ms_p50", "ms"},
	{"serve.install_ms_max", "ms"},
	{"serve.scrape_ms_p50", "ms"},
	{"serve.scrape_bytes", "B"},
	{"serve.scrape_series", "count"},
	{"control.cycle_ms_p50", "ms"},
	// megascale
	{"megascale.resolve_ms_p50", "ms"},
	{"megascale.rounds", "count"},
	{"megascale.solves", "count"},
	{"megascale.skips", "count"},
	{"megascale.expand_ms_p50", "ms"},
	{"megascale.system_build_ms", "ms"},
	{"megascale.solve_s", "s"},
	{"megascale.cold_rounds", "count"},
	{"megascale.cold_solves", "count"},
	{"megascale.cold_skips", "count"},
	{"megascale.warm_rounds", "count"},
	{"megascale.warm_solves", "count"},
	{"megascale.warm_skips", "count"},
	{"megascale.state_mb", "MB"},
	{"megascale.certify_s", "s"},
	{"megascale.cert_eps", "s"},
	// fleet
	{"fleet.encode_ms_p50", "ms"},
	{"fleet.table_bytes", "B"},
	{"fleet.decode_refused", "count"},
	// core, cluster, replicate
	{"core.solve_ms", "ms"},
	{"cluster.jobs", "count"},
	{"cluster.simulate_s", "s"},
	{"cluster.max_rel_error", "ratio"},
	{"replicate.efficiency", "ratio"},
	// runtime: the whole process, generator included
	{"runtime.allocs_per_req", "count"},
	{"runtime.bytes_per_req", "B"},
	{"runtime.cpu_us_per_req", "us"},
	{"runtime.allocs_per_job", "count"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	// bench: the untraced phase's latency tail, and generator validity
	{"bench.latency_p99_ms", "ms"},
	{"bench.latency_p999_ms", "ms"},
	{"bench.samples", "count"},
	{"bench.gen_lag_p99_ms", "ms"},
	{"bench.conn_wait_p99_ms", "ms"},
	// tracing overhead: traced minus untraced, per timed-phase metric
	{"trace.overhead.throughput_per_s", "1/s"},
	{"trace.overhead.latency_p50_ms", "ms"},
}

// complete orders got by the declared list, filling an undeclared layer
// with 0 when fill is set. A metric got holds that the list lacks, or a
// unit that disagrees, is a defect of the benchmark and is returned as a
// problem.
func complete(declared [][2]string, got []metric, fill bool) ([]metric, []string) {
	byName := map[string]metric{}
	var problems []string
	for _, m := range got {
		byName[m.name] = m
	}
	known := map[string]bool{}
	var out []metric
	for _, d := range declared {
		known[d[0]] = true
		m, ok := byName[d[0]]
		switch {
		case ok && m.unit != d[1]:
			problems = append(problems, "metric "+d[0]+" has unit "+m.unit+", declared "+d[1])
		case ok:
			out = append(out, m)
		case fill:
			out = append(out, metric{d[0], d[1], 0, 0})
		default:
			problems = append(problems, "metric "+d[0]+" not measured")
		}
	}
	for _, m := range got {
		if !known[m.name] {
			problems = append(problems, "metric "+m.name+" is not declared")
		}
	}
	return out, problems
}
