// t32_partition: Fig. 8's compile path. The T32 training step (289
// parameters, 9,769 traced ops) is traced once and cold-partitioned with
// BP+MP+Z3+EMB on the Table 3 mesh {batch:16, model:2} over and over, each
// cold partition followed by one in-memory cache hit. Propagation, lowering,
// the optimize fixpoint and device-program compile do all the work; no kernel
// runs, so a runtime change must not move this workload.
#include "perfbench/src/workloads.h"
#include "src/models/schedules.h"
#include "src/models/transformer.h"

namespace perfbench {
namespace {

using partir::Executable;
using partir::PartitionOptions;
using partir::Program;
using partir::StatusOr;

// The pinned Table 3 row of BP+MP+Z3+EMB on T32.
constexpr int64_t kTableAg = 707, kTableAr = 292, kTableRs = 257,
                  kTableA2a = 0;

bool MatchesTableRow(const partir::CollectiveStats& stats) {
  return stats.all_gather == kTableAg && stats.all_reduce == kTableAr &&
         stats.reduce_scatter == kTableRs && stats.all_to_all == kTableA2a;
}

bool SameCounts(const partir::CollectiveStats& a,
                const partir::CollectiveStats& b) {
  return a.all_gather == b.all_gather && a.all_reduce == b.all_reduce &&
         a.reduce_scatter == b.reduce_scatter &&
         a.all_to_all == b.all_to_all && a.all_slice == b.all_slice;
}

Program CaptureT32() {
  const partir::TransformerConfig config =
      partir::TransformerConfig::T32Scaled();
  return Program::Capture([&](partir::Module& module) {
    return partir::BuildTransformerTrainingStep(module, config);
  });
}

}  // namespace

Outcome RunT32Partition(const RunContext& ctx) {
  Tracer& tracer = *ctx.tracer;
  Outcome outcome;
  const partir::Mesh mesh({{"batch", 16}, {"model", 2}});
  const std::vector<partir::Tactic> schedule =
      partir::schedules::TransformerBPMPZ3EMB();
  PartitionOptions cold;
  cold.use_cache = false;

  // Set-up: capture plus the first (cache-filling) partition.
  std::vector<double> setup_s, capture_ms;
  std::unique_ptr<Program> program;
  for (int i = 0; i < kSetups; ++i) {
    Span setup(tracer, "setup");
    Clock::time_point start = Clock::now();
    {
      Span span(tracer, "ir.capture");
      program = std::make_unique<Program>(CaptureT32());
    }
    capture_ms.push_back(MillisSince(start));
    Span span(tracer, "partition.first");
    StatusOr<Executable> exe = program->Partition(schedule, mesh);
    setup_s.push_back(MillisSince(start) / 1e3);
    outcome.Record(exe.ok() && MatchesTableRow(exe->Collectives()),
                   "first partition: " + (exe.ok()
                                              ? exe->Collectives().ToString()
                                              : exe.status().ToString()));
  }

  // Timed window: cold partition, then one cache hit, until time is up.
  std::vector<double> cold_ms, hit_ms, overhead_ms;
  std::vector<Metrics> pipeline;
  std::unique_ptr<Executable> last;
  Clock::time_point window = Clock::now();
  {
    Span measure(tracer, "measure");
    while (MillisSince(window) < ctx.seconds * 1e3) {
      Clock::time_point start = Clock::now();
      StatusOr<Executable> exe = [&] {
        Span span(tracer, "partition.cold");
        return program->Partition(schedule, mesh, cold);
      }();
      const double ms = MillisSince(start);
      const bool ok = exe.ok() && MatchesTableRow(exe->Collectives());
      outcome.Record(ok, "cold partition: " +
                             (exe.ok() ? exe->Collectives().ToString()
                                       : exe.status().ToString()));
      if (!exe.ok()) continue;
      cold_ms.push_back(ms);
      overhead_ms.push_back(ms - exe->pipeline_stats().total_seconds * 1e3);
      pipeline.push_back(PipelineMetrics(exe->pipeline_stats()));

      start = Clock::now();
      StatusOr<Executable> hit = [&] {
        Span span(tracer, "partition.hit");
        return program->Partition(schedule, mesh);
      }();
      hit_ms.push_back(MillisSince(start));
      outcome.Record(hit.ok() && SameCounts(hit->Collectives(),
                                            exe->Collectives()),
                     "cache hit differs from the cold partition");
      last = std::make_unique<Executable>(std::move(exe).value());
    }
    measure.Arg("cold_partitions", static_cast<double>(cold_ms.size()));
  }
  const double window_s = MillisSince(window) / 1e3;
  if (last == nullptr) return outcome;  // every partition failed

  StatusOr<partir::exec::MemoryStats> memory = last->memory_stats();
  outcome.Record(memory.status(), "memory_stats");
  outcome.samples = static_cast<int64_t>(cold_ms.size());
  outcome.e2e["setup_s"] = Median(setup_s);
  outcome.e2e["latency_p50_ms"] = Median(cold_ms);
  // A run holds only 7-15 cold partitions, too few for a higher percentile
  // to rest on more than one or two samples.
  outcome.e2e["latency_tail_ms"] = Percentile(cold_ms, 0.75);
  outcome.e2e["throughput_per_s"] =
      static_cast<double>(cold_ms.size()) / window_s;
  outcome.e2e["peak_arena_bytes"] =
      memory.ok() ? static_cast<double>(memory->peak_arena_bytes) : 0.0;
  outcome.e2e["comm_bytes_per_step"] = last->Estimate().comm_bytes;

  if (ctx.layers) {
    Span span(tracer, "layers");
    Metrics& layers = outcome.layers;
    layers = MedianMetrics(pipeline);
    layers["ir.capture_ms"] = Median(capture_ms);
    layers["api.partition_overhead_ms"] = Median(overhead_ms);
    layers["api.cache_hit_ms"] = Median(hit_ms);
    AddModuleCounts(*last, layers);
    ProbeEstimate(tracer, *last, layers);
    ProbePool(tracer, layers);
  }
  return outcome;
}

}  // namespace perfbench
