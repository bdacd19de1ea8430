#include "src/pass/pipeline.h"

#include <chrono>

#include "src/core/materialize.h"
#include "src/ir/verifier.h"
#include "src/pass/passes.h"
#include "src/sim/cost_model.h"

namespace partir {
namespace {

/**
 * Registers the passes of tactics [0, count) of `schedule`: tactic[i] and
 * its propagation (incremental mode, manual tactics). The pipeline
 * registers every tactic through it and ReplayLoopForm a prefix, so a
 * replayed stage runs the same passes.
 */
void AddTacticPasses(PassManager& manager,
                     const std::vector<Tactic>& schedule, int count,
                     const PartitionOptions& options) {
  PARTIR_CHECK(count >= 0 && count <= static_cast<int>(schedule.size()))
      << "AddTacticPasses: " << count << " of " << schedule.size()
      << " tactics";
  for (int i = 0; i < count; ++i) {
    const Tactic& tactic = schedule[i];
    if (const auto* manual = std::get_if<ManualPartition>(&tactic)) {
      manager.AddPass(std::make_unique<ManualTacticPass>(i, *manual), i);
      if (options.incremental) {
        manager.AddPass(std::make_unique<PropagatePass>(i), i);
      }
    } else {
      manager.AddPass(std::make_unique<AutoTacticPass>(
                          i, std::get<AutomaticPartition>(tactic)),
                      i);
    }
  }
}

}  // namespace

void BuildPartitionPipeline(PassManager& manager,
                            const std::vector<Tactic>& schedule,
                            const PartitionOptions& options,
                            const PipelineVariant& variant) {
  AddTacticPasses(manager, schedule, static_cast<int>(schedule.size()),
                  options);
  if (!options.incremental) {
    // PartIR-st (Section 7.4): all tactics amalgamated, one propagation.
    manager.AddPass(std::make_unique<PropagatePass>());
  }
  manager.AddPass(std::make_unique<LowerToSpmdPass>());
  std::vector<std::unique_ptr<Pass>> optimize;
  optimize.push_back(std::make_unique<FuseGatherSlicePass>());
  if (variant.form_reduce_scatter) {
    optimize.push_back(std::make_unique<FormReduceScatterPass>());
  }
  optimize.push_back(std::make_unique<DcePass>());
  manager.AddFixpoint(std::move(optimize), /*max_iterations=*/8);
  manager.AddPass(std::make_unique<PlanCollectivesPass>());
  manager.AddPass(std::make_unique<CompileDeviceProgramsPass>());
  if (options.analyze) {
    manager.AddPass(std::make_unique<StaticAnalysisPass>());
  }
}

StatusOr<PartitionResult> RunPartitionPipeline(
    PartitionContext& ctx, const std::vector<Tactic>& schedule,
    const PartitionOptions& options, const PipelineVariant& variant) {
  auto total_start = std::chrono::steady_clock::now();
  PipelineOptions pipeline_options;
  pipeline_options.verify_after_each_pass = options.verify_passes;
  PassManager manager(pipeline_options);
  BuildPartitionPipeline(manager, schedule, options, variant);

  PartitionResult result;
  PipelineState state(ctx, schedule, options, result);
  PARTIR_RETURN_IF_ERROR(manager.Run(state));

  result.collectives =
      CountCollectives(*result.spmd.module, result.spmd.mesh);
  result.estimate = EstimateSpmd(result.spmd, options.device);
  result.conflicts = ctx.conflicts();
  // The manager overwrote result.pipeline with its own stats at the end of
  // Run, so the analysis counts are folded in here, not by the pass.
  result.pipeline.analysis_checkers =
      static_cast<int64_t>(result.analysis.checkers_run.size());
  result.pipeline.analysis_errors = result.analysis.errors();
  result.pipeline.analysis_warnings = result.analysis.warnings();
  // partition_seconds (Figure 8) covers the whole Partition call including
  // this finalization; pipeline.total_seconds stays the manager's own
  // measurement so total_ms ≈ sum(per-pass ms) + verify_ms in the stats.
  result.partition_seconds = std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() -
                                 total_start)
                                 .count();
  return result;
}

StatusOr<std::unique_ptr<Module>> ReplayLoopForm(
    PartitionContext& ctx, const std::vector<Tactic>& schedule, int count,
    bool deferred_propagation, const PartitionOptions& options) {
  PipelineOptions pipeline_options;
  pipeline_options.verify_after_each_pass = false;  // the form is verified
  PassManager manager(pipeline_options);
  AddTacticPasses(manager, schedule, count, options);
  if (deferred_propagation) {
    manager.AddPass(std::make_unique<PropagatePass>());
  }
  PartitionResult replay_result;  // the replayed reports are discarded
  PipelineState state(ctx, schedule, options, replay_result);
  PARTIR_RETURN_IF_ERROR(manager.Run(state));
  std::unique_ptr<Module> loops = MaterializeLoops(ctx);
  std::vector<std::string> diags = Verify(*loops, &ctx.mesh());
  if (!diags.empty()) {
    return InternalError("loop form after ", count,
                         " tactic(s) failed verification: ",
                         StrJoin(diags, "; "));
  }
  return loops;
}

}  // namespace partir
