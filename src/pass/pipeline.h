/**
 * @file
 * THE declaration of the partitioning pipeline: every Program::Partition /
 * Executable::Respecialize (and the partition-cache miss path) compiles by
 * building this pass pipeline and running it through a PassManager. New
 * rewrite stages — serving batcher pre-passes, additional collective
 * formations, autopart instrumentation — are added here and nowhere else.
 */
#ifndef PARTIR_PASS_PIPELINE_H_
#define PARTIR_PASS_PIPELINE_H_

#include <memory>
#include <vector>

#include "src/pass/pass_manager.h"
#include "src/schedule/schedule.h"

namespace partir {

/**
 * Ablation hooks for pipeline experiments (bench before/after rows). The
 * facade always compiles with the defaults; a variant never enters the
 * partition cache (callers that ablate must run the pipeline directly).
 */
struct PipelineVariant {
  /** Include the form-reduce-scatter pass in the optimization fixpoint. */
  bool form_reduce_scatter = true;
};

/**
 * Registers the partition pipeline for `schedule` on `manager`:
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
 * The module is lowered and optimized once. The collectives and estimate
 * after tactic i are those of partitioning schedule[0..i].
 */
void BuildPartitionPipeline(PassManager& manager,
                            const std::vector<Tactic>& schedule,
                            const PartitionOptions& options,
                            const PipelineVariant& variant = PipelineVariant());

/**
 * Runs the full pipeline over a fresh context and finalizes the result
 * (final collective counts, estimate, conflicts, per-pass statistics).
 * This is PartirJitOrError's engine; call it directly to ablate passes
 * through a PipelineVariant (the bench before/after rows).
 */
StatusOr<PartitionResult> RunPartitionPipeline(
    PartitionContext& ctx, const std::vector<Tactic>& schedule,
    const PartitionOptions& options,
    const PipelineVariant& variant = PipelineVariant());

/**
 * Recomputes the PartIR:Core loop form (Section 5) after tactics
 * [0, count) of `schedule` on a fresh `ctx`: the same tactic and
 * propagation passes the pipeline runs, then PartIR-st's deferred
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
