/**
 * @file
 * The three workloads and the plumbing they share: seeded input tensors and
 * the per-layer probes that time calls into each layer's public functions.
 *
 * A workload pass runs its set-ups, then its timed window, and — when asked
 * for layers — the per-layer probes. Every operation it attempts (a
 * partition, a training step, a request, a probe run) is recorded together
 * with whether its output checks passed.
 */
#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "perfbench/src/metrics.h"
#include "perfbench/src/stats.h"
#include "perfbench/src/trace.h"
#include "src/api/partir.h"

namespace perfbench {

/** Set-ups per pass; setup_s is their median. */
inline constexpr int kSetups = 3;

struct RunContext {
  uint64_t seed = 1;
  /** Length of the timed window. */
  double seconds = 10;
  Tracer* tracer = nullptr;
  /** Run the per-layer probes after the timed window. */
  bool layers = false;
};

/** What one pass over a workload produced. */
struct Outcome {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> failures;  // the first few, for the log
  /** Latency samples behind latency_p50_ms / latency_tail_ms. */
  int64_t samples = 0;
  Metrics e2e;
  Metrics layers;

  /** Counts one attempted operation; `ok` is whether its checks passed. */
  void Record(bool ok, const std::string& what);
  /** Counts one operation whose only check is the Status it returned; the
   *  message is built only on failure. */
  void Record(const partir::Status& status, const char* what);
};

Outcome RunT32Partition(const RunContext& ctx);
Outcome RunTrainStep(const RunContext& ctx);
Outcome RunServeInfer(const RunContext& ctx);

// ---- Seeded inputs ----

/** Uniform floats in [-scale, scale). */
partir::Tensor RandomTensor(const std::vector<int64_t>& dims, Rng& rng,
                            float scale);
/** A model parameter: norm scales (rank 1) uniform in 1 +- 0.1, matrices
 *  uniform within +- 0.5 / sqrt(dims[0]). */
partir::Tensor RandomParameter(const std::vector<int64_t>& dims, Rng& rng);
/** Uniform integer indices in [0, range), stored as floats. */
partir::Tensor RandomIndices(const std::vector<int64_t>& dims, Rng& rng,
                             int64_t range);
/** One-hot encoding of `indices` over `depth` classes (a trailing dim). */
partir::Tensor OneHot(const partir::Tensor& indices, int64_t depth);

/** Bitwise equality of two output lists (dims and every float's bits). */
bool BitwiseEqual(const std::vector<partir::Tensor>& a,
                  const std::vector<partir::Tensor>& b);

// ---- Per-layer probes ----

/** Median wall time in ms of `reps` calls of `fn`, each in a span. */
double TimeMedianMs(Tracer& tracer, const std::string& name, int reps,
                    const std::function<void()>& fn);

/** The compile layers' share of one partition, from pipeline_stats(). */
Metrics PipelineMetrics(const partir::PipelineStats& stats);

/** Per-metric median over several samples of the same metrics. */
Metrics MedianMetrics(const std::vector<Metrics>& samples);

/** spmd.ops and the collective counts (spmd.ag/ar/rs/a2a). */
void AddModuleCounts(const partir::Executable& exe, Metrics& out);

/** sim.estimate_ms: Executable::Estimate(DeviceSpec), timed. */
void ProbeEstimate(Tracer& tracer, const partir::Executable& exe,
                   Metrics& out);

/**
 * The runtime layers on one executable and its global inputs: Run per
 * backend, sequential and threaded; the parallel overhead; ShardTensor /
 * UnshardTensor; allocations per Run. Each Run is a recorded operation.
 */
void ProbeRuns(Tracer& tracer, const partir::Executable& exe,
               const std::vector<partir::Tensor>& inputs, int reps,
               Outcome& outcome, Metrics& out);

/** Device 0's kernel time by class, from a replay of the SPMD program. */
struct ReplayBreakdown {
  double dot_ms = 0, elementwise_ms = 0, reduce_ms = 0, data_movement_ms = 0;
  int64_t dot_ops = 0, elementwise_ops = 0, reduce_ops = 0,
          data_movement_ops = 0;
  /** EvalGroupCollective calls of the replica groups holding device 0. */
  double collective_ms = 0;
  int64_t collective_calls = 0;

  double total_ms() const {
    return dot_ms + elementwise_ms + reduce_ms + data_movement_ms +
           collective_ms;
  }
};

/**
 * Replays the executable's device-local program with the sequential
 * reference semantics, every device on its own shards, timing device 0's
 * EvalOp calls per kernel class and its groups' EvalGroupCollective calls.
 * Returns false (and leaves `out` partial) when the replay's outputs differ
 * from `expected`, the executable's own outputs for `inputs`.
 */
bool ReplayDevice0(const partir::Executable& exe,
                   const std::vector<partir::Tensor>& inputs,
                   const std::vector<partir::Tensor>& expected,
                   ReplayBreakdown& out);

void AddReplay(const ReplayBreakdown& replay, Metrics& out);

/** exec.pool_dispatch_us / exec.spawn_us: WorkerPool::Run(4, no-op) against
 *  spawning and joining 4 threads, p50 over many calls. */
void ProbePool(Tracer& tracer, Metrics& out);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
