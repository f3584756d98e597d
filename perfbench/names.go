package main

import "fmt"

// metricDef names one reported metric and its unit. The lists below are
// the benchmark's whole vocabulary; BENCHMARK.json lists the same names
// (a test keeps the two in step).
type metricDef struct{ name, unit string }

// endToEnd is what an untraced run reports, on every workload. The
// operation behind throughput_per_s, p50_ms and mean_ms differs per
// workload (see README.md).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
	{"throughput_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"mean_ms", "ms"},
}

// perLayer is what a traced run reports, on every workload; a layer the
// workload does not reach reads 0.
var perLayer = []metricDef{
	{"uring.submit_ms", "ms"},
	{"uring.wait_ms", "ms"},
	{"uring.sqes_per_submit", "count"},
	{"uring.syscalls_per_batch", "count"},
	{"uring.retries", "count"},
	{"uring.feat_submit_ms", "ms"},
	{"uring.feat_wait_ms", "ms"},
	{"core.hop0_ms", "ms"},
	{"core.hop1_ms", "ms"},
	{"core.hop2_ms", "ms"},
	{"core.hop0_entries", "count"},
	{"core.hop1_entries", "count"},
	{"core.hop2_entries", "count"},
	{"core.hop0_frontier", "count"},
	{"core.hop1_frontier", "count"},
	{"core.hop2_frontier", "count"},
	{"core.dedup_ms", "ms"},
	{"core.batch_p50_ms", "ms"},
	{"core.device_bytes_per_entry", "ratio"},
	{"core.feat_fetch_ms", "ms"},
	{"cache.nbr_hit_ratio", "ratio"},
	{"cache.feat_hit_ratio", "ratio"},
	{"cache.bytes_saved_mb", "MB"},
	{"cache.build_s", "s"},
	{"train.step_ms", "ms"},
	{"train.stall_share", "ratio"},
	{"train.loss", "nats"},
	{"serve.queue_wait_ms", "ms"},
	{"serve.sample_ms", "ms"},
	{"serve.microbatch_targets", "count"},
	{"serve.response_kb", "KiB"},
	{"serve.rejected", "count"},
	{"serve.lo_tail_ms", "ms"},
	{"serve.hi_queue_wait_ms", "ms"},
	{"serve.hi_p50_ms", "ms"},
	{"serve.hi_tail_ms", "ms"},
	{"loadgen.late_p99_ms", "ms"},
	{"shard.layer_calls_per_request", "count"},
	{"shard.layer_ms", "ms"},
	{"shard.replay_ratio", "ratio"},
	{"shard.partition_s", "s"},
	{"gen.generate_s", "s"},
	{"storage.open_s", "s"},
	{"trace.overhead_pct", "%"},
	{"trace.spans", "count"},
}

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.name == name {
			return d.unit
		}
	}
	panic(fmt.Sprintf("perfbench: metric %q is not defined", name))
}

// set records a metric of the run's mode under its defined unit.
func (r *run) set(name string, v float64) {
	defs := endToEnd
	if r.trace {
		defs = perLayer
	}
	r.m.put(name, unitOf(defs, name), v)
}

// complete checks that the run reported exactly its mode's metrics,
// filling per-layer metrics of layers the workload never reached with 0.
func (r *run) complete() error {
	defs := endToEnd
	if r.trace {
		defs = perLayer
	}
	for _, d := range defs {
		if _, ok := r.m[d.name]; ok {
			continue
		}
		if !r.trace {
			return fmt.Errorf("end-to-end metric %s was not measured", d.name)
		}
		r.m.put(d.name, d.unit, 0)
	}
	if len(r.m) != len(defs) {
		return fmt.Errorf("run reported %d metrics, want %d", len(r.m), len(defs))
	}
	return nil
}
