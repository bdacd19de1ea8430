/**
 * @file
 * The benchmark's metric catalogue. Every run reports every metric of one
 * table: the end-to-end table with tracing off, the per-layer table with
 * tracing on. BENCHMARK.json declares the same names; run.py checks that the
 * two agree on every run.
 *
 * End-to-end metrics are workload-generic so that every workload reports all
 * of them (see README.md for what each one measures per workload). A
 * per-layer metric whose layer does no work in a workload reads 0 there: the
 * t32_partition workload never runs a kernel, so its interp.* times are 0.
 */
#ifndef PERFBENCH_SRC_METRICS_H_
#define PERFBENCH_SRC_METRICS_H_

#include <map>
#include <string>

namespace perfbench {

struct MetricSpec {
  const char* name;
  const char* unit;
};

inline constexpr MetricSpec kEndToEndMetrics[] = {
    {"setup_s", "s"},
    {"latency_p50_ms", "ms"},
    {"latency_tail_ms", "ms"},
    {"throughput_per_s", "1/s"},
    {"peak_arena_bytes", "bytes"},
    {"comm_bytes_per_step", "bytes"},
    {"ok_frac", "fraction"},
};

/** The end-to-end metrics the traced run repeats with tracing on; it reports
 *  each as trace.<name> plus trace.<name>.delta (traced - untraced). */
inline constexpr const char* kTracedTimings[] = {
    "setup_s", "latency_p50_ms", "latency_tail_ms", "throughput_per_s"};

inline constexpr MetricSpec kPerLayerMetrics[] = {
    {"ir.capture_ms", "ms"},
    {"pass.tactic_ms", "ms"},
    {"core.propagate_ms", "ms"},
    {"core.propagate_steps", "count"},
    {"pass.report_ms", "ms"},
    {"spmd.lower_ms", "ms"},
    {"spmd.fuse_gather_slice_ms", "ms"},
    {"spmd.form_reduce_scatter_ms", "ms"},
    {"spmd.dce_ms", "ms"},
    {"spmd.fixpoint_runs", "count"},
    {"spmd.rewrites", "count"},
    {"spmd.plan_collectives_ms", "ms"},
    {"exec.compile_ms", "ms"},
    {"sim.estimate_ms", "ms"},
    {"api.partition_overhead_ms", "ms"},
    {"api.cache_hit_ms", "ms"},
    {"spmd.ops", "count"},
    {"spmd.ag", "count"},
    {"spmd.ar", "count"},
    {"spmd.rs", "count"},
    {"spmd.a2a", "count"},
    {"interp.run_seq_ms", "ms"},
    {"exec.run_seq_ms", "ms"},
    {"interp.run_threaded_ms", "ms"},
    {"exec.run_threaded_ms", "ms"},
    {"exec.parallel_overhead_ms", "ms"},
    {"spmd.shard_ms", "ms"},
    {"spmd.unshard_ms", "ms"},
    {"interp.dot_ms", "ms"},
    {"interp.dot.ops", "count"},
    {"interp.elementwise_ms", "ms"},
    {"interp.elementwise.ops", "count"},
    {"interp.reduce_ms", "ms"},
    {"interp.reduce.ops", "count"},
    {"interp.data_movement_ms", "ms"},
    {"interp.data_movement.ops", "count"},
    {"spmd.collective_ms", "ms"},
    {"spmd.collective_calls", "count"},
    {"interp.allocations", "count"},
    {"exec.allocations", "count"},
    {"serve.service_k1_ms", "ms"},
    {"serve.service_k8_ms", "ms"},
    {"interp.kernel_k1_ms", "ms"},
    {"serve.stack_us", "us"},
    {"serve.unstack_us", "us"},
    {"serve.overhead_ms", "ms"},
    {"serve.batches", "count"},
    {"serve.mean_batch_open", "requests"},
    {"serve.mean_batch_closed", "requests"},
    {"serve.compiles", "count"},
    {"serve.fallbacks", "count"},
    {"serve.submit_us_p99", "us"},
    {"exec.pool_dispatch_us", "us"},
    {"exec.spawn_us", "us"},
    {"gen.late_ms_max", "ms"},
    {"trace.spans", "count"},
    {"trace.setup_s", "s"},
    {"trace.setup_s.delta", "s"},
    {"trace.latency_p50_ms", "ms"},
    {"trace.latency_p50_ms.delta", "ms"},
    {"trace.latency_tail_ms", "ms"},
    {"trace.latency_tail_ms.delta", "ms"},
    {"trace.throughput_per_s", "1/s"},
    {"trace.throughput_per_s.delta", "1/s"},
};

/** Metric values by name. */
using Metrics = std::map<std::string, double>;

}  // namespace perfbench

#endif  // PERFBENCH_SRC_METRICS_H_
