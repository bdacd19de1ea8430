/**
 * @file
 * The PartIR schedule API (paper Section 3, Table 1): users compose
 * ManualPartition and AutomaticPartition *tactics*; each tactic desugars
 * into tile/atomic compiler actions followed by propagation, applied
 * incrementally. `PartirJitOrError` runs a schedule through the whole
 * stack — actions -> propagation -> SPMD lowering -> collective
 * optimization — and returns the device-local module together with
 * per-tactic metadata (collective breakdown and simulator estimates), the
 * paper's headline "verify the strategy after every tactic" workflow.
 */
#ifndef PARTIR_SCHEDULE_SCHEDULE_H_
#define PARTIR_SCHEDULE_SCHEDULE_H_

#include <map>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "src/analysis/diagnostics.h"
#include "src/autopart/mcts.h"
#include "src/core/context.h"
#include "src/pass/stats.h"
#include "src/sim/cost_model.h"
#include "src/spmd/lowering.h"
#include "src/spmd/optimize.h"
#include "src/support/status.h"

namespace partir {

/** Keep the value replicated on the tactic's axis (Z2's `REPLICATED`). */
constexpr int64_t kReplicated = -1;
/** Shard the first dim divisible by the axis (`FIRST_DIVISIBLE_DIM`). */
constexpr int64_t kFirstDivisibleDim = -2;

/**
 * A manual tactic: shard the named inputs along `axis`.
 *
 * Keys match function inputs (or `tag`ged values) by exact name first;
 * otherwise every input whose name *contains* the key is matched — the
 * mechanism behind the paper's per-parameter callbacks (Appendix A.4),
 * e.g. {"qkv_einsum": 1} shards every block's QKV projection.
 */
struct ManualPartition {
  std::string name;
  /** Ordered (key, dim) actions; order matters (e.g. REPLICATED marks must
   *  precede FIRST_DIVISIBLE_DIM keys that would otherwise match). */
  std::vector<std::pair<std::string, int64_t>> inputs;
  std::string axis;
};

/** An automatic tactic: discover sharding over the given axes (Section 3). */
struct AutomaticPartition {
  std::string name;
  std::vector<std::string> axes;
  AutoOptions options;
};

using Tactic = std::variant<ManualPartition, AutomaticPartition>;

/** Metadata reported after each tactic (PartIR.jit's returned metadata). */
struct TacticReport {
  std::string name;
  int actions_applied = 0;       // tile/atomic actions that took effect
  int conflicts = 0;             // cumulative propagation conflicts
  CollectiveStats collectives;   // after lowering this tactic's prefix
  SimEstimate estimate;          // simulator estimate of the prefix
  double tactic_seconds = 0;     // wall-clock spent in this tactic
  int evaluations = 0;           // simulator evaluations (automatic tactics)
  double search_seconds = 0;     // search wall-clock (automatic tactics)
};

/** Pipeline options. */
struct PartitionOptions {
  DeviceSpec device = Tpu_v3();
  /**
   * true  = PartIR  (propagate at every tactic boundary);
   * false = PartIR-st, the Section 7.4 ablation that amalgamates all
   *         tactics into one and propagates once at the end.
   */
  bool incremental = true;
  /** Lower + simulate after every tactic (per-tactic metadata). */
  bool per_tactic_reports = true;
  /** Capture a printable IR snapshot at every pipeline stage (the loop form
   *  after each tactic, the final loop form, the device-local module) so
   *  Executable::Print can render any tactic prefix (the paper's per-tactic
   *  verification workflow). Each capture clones a module and is retained
   *  for the executable's lifetime, so it is opt-in. */
  bool capture_stages = false;
  /** Run the IR verifier between pipeline passes (defaults on in
   *  assertion-enabled builds). A violation surfaces as a typed kInternal
   *  Status naming the pass. Not part of the cache key (it cannot change
   *  the partitioned program). */
  bool verify_passes = kVerifyPassesDefault;
  /**
   * Boundary-aware propagation realization (Section 5.2.2 realization of
   * partial values): at realization boundaries — normalization statistics,
   * softmax-style reductions, and the projections they feed — the Propagate
   * pass consults the cost model (ChooseBoundaryRealization) to realize
   * each contracting step as an all_gather of the tiled operands, an
   * all_reduce of the partial, or a reduce_scatter re-tiling on the
   * gradient path, instead of hard-coding all_reduce. Turning this off is
   * the ablation that restores the historical all-AR realization (the T32
   * standalone-EMB row degrades from 256/193/128/0 to 0/355/0/0). Part of
   * the cache key (it changes the partitioned program).
   */
  bool boundary_realization = true;
  /** Consult (and populate) the Program's partition cache. Turn off to
   *  force the full pipeline on every call — e.g. when benchmarking it.
   *  Not part of the cache key (it does not change the result). */
  bool use_cache = true;
  /**
   * Directory of the persistent cross-process compilation cache
   * (src/persist/): in-memory misses consult the content-addressed on-disk
   * store before running the pipeline, and pipeline results are persisted
   * back best-effort, so a restarted (or sibling) process warms from prior
   * compilations. Empty (the default) falls back to the PARTIR_CACHE_DIR
   * environment variable; when that is unset too, the disk tier is
   * disabled. Requires use_cache. Not part of the cache key (it does not
   * change the result).
   */
  std::string cache_dir;
  /**
   * Run the static analysis suite (src/analysis/: IR lint, shape
   * consistency, collective deadlock/mismatch detection, memory-plan
   * verification) as a final pipeline pass. Errors fail the pipeline with a
   * typed kInternal Status; the full report (warnings included) lands in
   * PartitionResult::analysis and its counts in pipeline_stats(). Defaults
   * on in assertion-enabled builds, like verify_passes. Not part of the
   * cache key (it cannot change the partitioned program).
   */
  bool analyze = kVerifyPassesDefault;
};

/** Result of running a schedule. */
struct PartitionResult {
  SpmdModule spmd;                     // final optimized device-local module
  CollectiveStats collectives;         // final counts (Table 3 rows)
  SimEstimate estimate;                // final simulator estimate
  std::vector<TacticReport> tactics;   // per-tactic metadata
  double partition_seconds = 0;        // total PartIR time (Figure 8)
  std::vector<Conflict> conflicts;     // all recorded conflicts
  /** Per-pass timings, op deltas and collective counts of the pipeline run
   *  that produced this result (copied verbatim on cache hits). */
  PipelineStats pipeline;
  /** Stage snapshots captured by the pass manager (capture_stages):
   *  the loop form after every tactic prefix and after the full schedule.
   *  Executable::Print(Stage) renders these. */
  std::vector<StageSnapshot> snapshots;
  /** Findings of the static-analysis pass (PartitionOptions::analyze);
   *  empty when analysis was off or everything was clean. */
  analysis::AnalysisReport analysis;
};

/**
 * Runs a schedule against a partition context (Table 1's PartIR.jit).
 * Errors are typed and message-carrying: a tactic axis missing from the
 * mesh, a ManualPartition key matching zero inputs, or an explicit tile dim
 * that cannot be sharded all fail the whole pipeline instead of silently
 * changing the strategy.
 */
StatusOr<PartitionResult> PartirJitOrError(
    PartitionContext& ctx, const std::vector<Tactic>& schedule,
    const PartitionOptions& options = {});

/**
 * Applies one manual tactic's actions; returns #actions applied. Errors
 * when the tactic's axis is not a mesh axis, when a key matches zero
 * inputs/tags (naming the key), or when an explicit-dim action fails
 * (indivisible dim, axis conflict). kFirstDivisibleDim actions remain
 * best-effort: a value with no divisible dim is skipped, not an error.
 */
StatusOr<int> ApplyManualTacticOrError(PartitionContext& ctx,
                                       const ManualPartition& tactic);

}  // namespace partir

#endif  // PARTIR_SCHEDULE_SCHEDULE_H_
