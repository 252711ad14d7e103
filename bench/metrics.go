package main

// The metric catalogue. BENCHMARK.json at the repo root names the same
// metrics with the same units (a test compares them); the bounds live
// only there.

type metricDef struct {
	name, unit string
}

// endToEnd is what a tenant or operator of the plane sees. Every
// workload reports every one; what the timed operation is differs by
// workload and is said in the README's workload table.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"react_p50_ms", "ms"},
	{"react_p90_ms", "ms"},
	{"server_rss_mb", "MB"},
}

// perLayer are the ungated numbers of the traced run: the process
// boundary first, then one group per package of the repo, then the
// attribution. A metric a workload does not exercise reads 0.
var perLayer = []metricDef{
	{"build_s", "s"},
	{"probe.samples", "count"},
	{"throughput.per_s", "1/s"},
	{"server.cpu_us_per_op", "us/op"},
	{"server.rss_load_mb", "MB"},
	{"server.rss_peak_mb", "MB"},
	{"server.cpu_user_s", "s"},
	{"server.cpu_sys_s", "s"},
	{"server.epochs_per_s", "1/s"},
	{"server.gen_rolls", "count"},
	{"server.backpressure_429", "count"},
	{"sse.events_per_s", "1/s"},
	{"sse.bytes_per_event", "B"},
	{"gen.late_p90_ms", "ms"},
	{"gen.late_max_ms", "ms"},
	{"gen.cpu_s", "s"},
	{"host.sleep_quantum_ms", "ms"},
	{"host.stall_count", "count"},
	{"host.stall_max_ms", "ms"},
	{"react.p50_ms", "ms"},
	{"react.pooled_p50_ms", "ms"},
	{"react.pooled_p90_ms", "ms"},
	{"react.p99_ms", "ms"},
	{"react.samples", "count"},
	{"react.highest_pct", "%"},
	{"react.ladder_p50_ms", "ms"},
	{"react.dsl_p50_ms", "ms"},
	{"react.flush_p50_ms", "ms"},
	{"policy.decisions_per_s", "1/s"},
	{"policy.fuel_per_decision", "count"},
	{"tenant.epoch_period_p50_ms", "ms"},
	{"tenant.epoch_period_p90_ms", "ms"},
	{"tenant.ticks_min_over_median", "ratio"},
	{"ingest.json_samples_per_s", "1/s"},
	{"ingest.json_p50_ms", "ms"},
	{"ingest.json_p90_ms", "ms"},
	{"admit.register_p50_ms", "ms"},
	{"admit.register_p90_ms", "ms"},
	{"admit.register_dsl_p50_ms", "ms"},
	{"admit.put_policy_p50_ms", "ms"},
	{"admit.detach_p50_ms", "ms"},
	{"wal.bytes_at_kill", "B"},
	{"recover.p50_s", "s"},
	{"recover.apps_restored", "count"},

	{"wire.encode_ns_per_sample", "ns"},
	{"wire.decode_ns_per_sample", "ns"},
	{"wire.bytes_per_sample", "B"},
	{"controlplane.observe_bin_us_per_frame", "us"},
	{"controlplane.observe_json_us_per_batch", "us"},
	{"controlplane.epochs_render_us", "us"},
	{"controlplane.epochs_bytes", "B"},
	{"controlplane.app_status_us", "us"},
	{"controlplane.register_us", "us"},
	{"controlplane.put_policy_us", "us"},
	{"controlplane.detach_us", "us"},
	{"inbox.push_batch_ns_per_sample", "ns"},
	{"inbox.drain_ns_per_sample", "ns"},
	{"controller.tick_quiet_ns", "ns"},
	{"controller.tick_ns_per_sample", "ns"},
	{"controller.tick_fire_ladder_ns", "ns"},
	{"controller.tick_fire_dsl_ns", "ns"},
	{"monitor.window_push_ns", "ns"},
	{"monitor.summaries_ns", "ns"},
	{"monitor.sla_check_ns", "ns"},
	{"policyc.compile_us", "us"},
	{"policyc.decide_ns", "ns"},
	{"policyc.fuel_per_decision", "count"},
	{"rtrm.begin_us", "us"},
	{"rtrm.sweep_us", "us"},
	{"rtrm.dispatch_us", "us"},
	{"rtrm.commit_us", "us"},
	{"kernel.run_epoch_us", "us"},
	{"kernel.overhead_us", "us"},
	{"kernel.allocs_per_epoch", "count"},
	{"kernel.attach_us", "us"},
	{"kernel.detach_us", "us"},
	{"durable.append_us", "us"},
	{"durable.append_2writers_us", "us"},
	{"durable.snapshot_us", "us"},
	{"durable.open_us_per_record", "us"},

	{"walk.sum_ms", "ms"},
	{"walk.unattributed_ms", "ms"},
	{"trace.overhead_frac", "ratio"},
}
