/**
 * @file
 * The partitioning pipeline (paper Sections 5-6). Every Program::Partition
 * and Executable::Respecialize (and the partition-cache miss path) compiles
 * through RunPartitionPipeline, one fixed sequence of stages:
 *
 *   per tactic i:  tactic[i]        (manual actions or automatic search)
 *                  propagate        (incremental mode, manual tactics)
 *   then:          propagate        (PartIR-st: single deferred propagation)
 *                  lower-to-spmd
 *   to fixpoint:   fuse-gather-slice | form-reduce-scatter | dce
 *   finally:       plan-collectives
 *                  compile-device-programs
 *                  static-analysis  (PartitionOptions::analyze)
 *
 * Each stage is timed into the PassStats of its name, and with
 * PartitionOptions::verify_passes the IR verifier runs after it; a failure
 * is a typed Status naming the stage. The module is lowered and optimized
 * once. The collectives and estimate after tactic i are those of
 * partitioning schedule[0..i].
 */
#ifndef PARTIR_PASS_PIPELINE_H_
#define PARTIR_PASS_PIPELINE_H_

#include <memory>
#include <vector>

#include "src/schedule/schedule.h"

namespace partir {

/**
 * Ablation hooks for pipeline experiments (bench before/after rows). The
 * facade always compiles with the defaults; a variant never enters the
 * partition cache (callers that ablate must run the pipeline directly).
 */
struct PipelineVariant {
  /** Include the form-reduce-scatter stage in the optimization fixpoint. */
  bool form_reduce_scatter = true;
};

/**
 * Runs the stages above over `ctx` and finalizes the result (final
 * collective counts, estimate, conflicts, per-stage statistics). This is
 * PartirJitOrError's engine; call it directly to ablate stages through a
 * PipelineVariant (the bench before/after rows).
 */
StatusOr<PartitionResult> RunPartitionPipeline(
    PartitionContext& ctx, const std::vector<Tactic>& schedule,
    const PartitionOptions& options,
    const PipelineVariant& variant = PipelineVariant());

/**
 * Recomputes the PartIR:Core loop form (Section 5) after tactics
 * [0, count) of `schedule` on a fresh `ctx`: the same tactic and
 * propagation stages the pipeline runs, then PartIR-st's deferred
 * propagation when `deferred_propagation` is set. Automatic
 * tactics re-run their seeded search. The materialized module is verified;
 * a violation is a typed kInternal Status. Executable::Print renders the
 * loop-form stages through it.
 */
StatusOr<std::unique_ptr<Module>> ReplayLoopForm(
    PartitionContext& ctx, const std::vector<Tactic>& schedule, int count,
    bool deferred_propagation, const PartitionOptions& options);

}  // namespace partir

#endif  // PARTIR_PASS_PIPELINE_H_
