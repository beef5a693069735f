package main

// endToEnd lists the metrics an untraced run reports, with their units.
var endToEnd = []struct{ name, unit string }{
	{"throughput_ops", "ops/s"},
	{"latency_p50_s", "s"},
	{"latency_p90_s", "s"},
	{"f_measure", "ratio"},
	{"ok_ratio", "ratio"},
	{"alloc_mib_per_op", "MiB"},
	{"setup_s", "s"},
}

// perLayer lists the metrics a traced run reports, with their units. A layer
// a workload does not exercise reads 0 (README.md says which layer each
// workload loads).
var perLayer = []struct{ name, unit string }{
	{"eventlog.parse_csv_s", "s"},
	{"eventlog.parse_xes_s", "s"},
	{"eventlog.events", "count"},
	{"depgraph.build_s", "s"},
	{"depgraph.vertices", "count"},
	{"depgraph.edges", "count"},
	{"label.matrix_s", "s"},
	{"core.agreement_cache_s", "s"},
	{"core.iterate_fwd_s", "s"},
	{"core.iterate_bwd_s", "s"},
	{"core.estimate_certify_s", "s"},
	{"core.rounds", "count"},
	{"core.evaluations", "count"},
	{"core.pruned_skips", "count"},
	{"core.pruned_ratio", "ratio"},
	{"core.error_bound", "sim"},
	{"core.bound_over_budget", "ratio"},
	{"core.max_abs_error", "sim"},
	{"core.predicted_heap_mib", "MiB"},
	{"matching.select_s", "s"},
	{"ems.encode_s", "s"},
	{"ems.result_kib", "KiB"},
	{"ems.match_s.a40", "s"},
	{"ems.match_s.a80", "s"},
	{"ems.match_s.a120", "s"},
	{"server.submit_s", "s"},
	{"server.run_s", "s"},
	{"server.wait_s", "s"},
	{"server.result_get_s", "s"},
	{"server.cache_hit_ratio", "ratio"},
	{"server.persist_share", "ratio"},
	{"journal.syncs_per_job", "count"},
	{"journal.writes_per_job", "count"},
	{"journal.bytes_per_job", "B"},
	{"bench.cpu_per_wall", "ratio"},
	{"bench.gen_late_p90_s", "s"},
	{"bench.trace_overhead_ratio", "ratio"},
	{"bench.core_share", "ratio"},
	{"bench.ingest_share", "ratio"},
}

// fillPerLayer completes a traced report: declared metrics the workload did
// not measure read 0, and every unit is the declared one.
func fillPerLayer(r *report) {
	out := make(map[string]metric, len(perLayer))
	for _, m := range perLayer {
		out[m.name] = metric{Value: r.Metrics[m.name].Value, Unit: m.unit}
	}
	for name := range r.Metrics {
		if _, ok := out[name]; !ok {
			panic("emsperf: per-layer metric " + name + " is not declared")
		}
	}
	r.Metrics = out
}
