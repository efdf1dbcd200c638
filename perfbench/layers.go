package main

import "fmt"

// perLayer lists every per-layer metric a traced run reports, with its
// unit, grouped by the layer it measures. Each traced run reports all of
// them; a metric of a layer the workload does not exercise reads 0.
var perLayer = []struct{ name, unit string }{
	// internal/mc (check-close)
	{"mc.states", "count"}, {"mc.transitions", "count"}, {"mc.depth", "count"},
	{"mc.peak_frontier", "count"}, {"mc.dedup_ratio", "ratio"}, {"mc.bytes_per_state", "B"},
	{"mc.key_compression", "ratio"}, {"mc.window_states_per_s", "1/s"}, {"mc.other_share", "ratio"},
	// internal/machine and internal/canon (check-close)
	{"machine.clone_ns", "ns"}, {"machine.step_ns", "ns"}, {"machine.key_ns", "ns"}, {"canon.hash_ns", "ns"},
	// internal/partition and internal/core Dyn (churn-tree)
	{"dyn.events", "count"}, {"dyn.apply_us_p50", "us"}, {"dyn.apply_us_p99", "us"}, {"dyn.apply_us_max", "us"},
	{"dyn.touched", "count"}, {"dyn.touched_classes", "count"}, {"dyn.splits", "count"},
	{"dyn.merges", "count"}, {"dyn.relabeled", "count"}, {"dyn.sig_computes", "count"},
	{"dyn.rounds", "count"}, {"dyn.merge_pass_frac", "ratio"}, {"dyn.rebuild_frac", "ratio"},
	{"similarity.recompute_ms", "ms"}, {"dyn.speedup_x", "ratio"},
	// internal/server over HTTP, and the layers below it (daemon-mix)
	{"http.create_us_p50", "us"}, {"http.create_us_p99", "us"},
	{"http.step_us_p50", "us"}, {"http.step_us_p99", "us"},
	{"http.reload_us_p50", "us"}, {"http.reload_us_p99", "us"},
	{"http.delete_us_p50", "us"}, {"http.delete_us_p99", "us"},
	{"server.create_us_p50", "us"}, {"server.create_us_p99", "us"},
	{"server.step_us_p50", "us"}, {"server.step_us_p99", "us"},
	{"server.reload_us_p50", "us"}, {"server.reload_us_p99", "us"},
	{"server.delete_us_p50", "us"}, {"server.delete_us_p99", "us"},
	{"http.overhead_us", "us"}, {"server.queue_us", "us"},
	{"sysdsl.parse_us", "us"}, {"adversary.harness_build_us", "us"}, {"adversary.advance_us", "us"},
	{"registry.server_slots", "count"}, {"registry.server_steps", "count"},
	{"registry.server_sessions_created", "count"}, {"registry.server_sessions_finished", "count"},
	{"registry.server_sessions_converged", "count"}, {"registry.server_sessions_deleted", "count"},
	{"registry.server_sessions_reloaded", "count"}, {"registry.dyn_touched", "count"},
	{"registry.dyn_splits", "count"}, {"registry.dyn_merges", "count"},
	{"registry.dyn_relabeled", "count"}, {"registry.dyn_rebuilds", "count"},
	// Go runtime and the tracer itself (every workload)
	{"go.allocs_per_op", "count"}, {"go.bytes_per_op", "B"}, {"go.gc_cycles", "count"},
	{"go.gc_cpu_frac", "ratio"}, {"trace.overhead_frac", "ratio"},
}

// fillPerLayer gives o every per-layer metric, 0 for the ones its
// workload does not exercise, and rejects a metric missing from the list.
func fillPerLayer(o *outcome) {
	known := make(map[string]string, len(perLayer))
	for _, m := range perLayer {
		known[m.name] = m.unit
		if _, ok := o.metrics[m.name]; !ok {
			o.set(m.name, 0, m.unit)
		}
	}
	for name, m := range o.metrics {
		if unit, ok := known[name]; !ok || unit != m.Unit {
			panic(fmt.Sprintf("per-layer metric %s (%s) is not in perLayer", name, m.Unit))
		}
	}
}
