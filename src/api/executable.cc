#include "src/api/executable.h"

#include "src/analysis/analyze.h"
#include "src/api/partition_cache.h"
#include "src/exec/executor.h"
#include "src/exec/worker_pool.h"
#include "src/ir/printer.h"
#include "src/pass/pipeline.h"
#include "src/persist/serializer.h"
#include "src/persist/store.h"
#include "src/spmd/spmd_interpreter.h"

namespace partir {
namespace api_internal {

Status ValidateInputs(const Func& func, const std::vector<Tensor>& inputs) {
  int expected = func.body().num_args();
  if (static_cast<int>(inputs.size()) != expected) {
    return InvalidArgumentError("expected ", expected, " inputs for '",
                                func.name(), "', got ", inputs.size());
  }
  for (int i = 0; i < expected; ++i) {
    const Value* arg = func.body().arg(i);
    if (!arg->type().IsTensor()) continue;
    if (inputs[i].dims() != arg->tensor_type().dims()) {
      return InvalidArgumentError(
          "input ", i, " ('", arg->name(), "') has shape [",
          StrJoin(inputs[i].dims(), ","), "], expected [",
          StrJoin(arg->tensor_type().dims(), ","), "]");
    }
  }
  return Status::Ok();
}

}  // namespace api_internal

StatusOr<std::vector<Tensor>> Executable::Run(
    const std::vector<Tensor>& inputs, const RunOptions& options) const {
  PARTIR_RETURN_IF_ERROR(api_internal::ValidateInputs(*traced_, inputs));
  RunOptions run_options = options;
  RunStats local_stats;
  if (run_options.stats == nullptr) run_options.stats = &local_stats;
  // Only a threaded compiled Run uses the pool; creating it for any other
  // Run would leave one idle resident thread per device behind.
  if (run_options.pool == nullptr && run_options.use_pool &&
      run_options.backend == ExecBackend::kCompiled &&
      exec::Concurrency(run_options, mesh().NumDevices()) > 1) {
    run_options.pool = EnsurePool();
  }
  StatusOr<std::vector<Tensor>> outputs =
      RunSpmd(result_->spmd, inputs, run_options);
  if (outputs.ok()) {
    runtime_->last_run_allocations.store(run_options.stats->allocations,
                                         std::memory_order_relaxed);
  }
  return outputs;
}

exec::WorkerPool* Executable::EnsurePool() const {
  std::lock_guard<std::mutex> lock(runtime_->mu);
  if (runtime_->pool == nullptr) {
    runtime_->pool = std::make_shared<exec::WorkerPool>(mesh().NumDevices());
  }
  return runtime_->pool.get();
}

SimEstimate Executable::Estimate(const DeviceSpec& device) const {
  return EstimateSpmd(result_->spmd, device);
}

StatusOr<exec::MemoryStats> Executable::memory_stats() const {
  exec::MemoryStats stats = exec::ComputeMemoryStats(
      result_->spmd, *result_->spmd.exec_program);
  stats.last_run_allocations =
      runtime_->last_run_allocations.load(std::memory_order_relaxed);
  return stats;
}

analysis::AnalysisReport Executable::Analyze() const {
  return analysis::AnalyzeSpmd(result_->spmd);
}

StatusOr<std::string> Executable::Print(Stage stage) const {
  // Loop forms are not kept: each one is recomputed from the schedule.
  auto print_loop_form = [&](int count, bool deferred_propagation)
      -> StatusOr<std::string> {
    PartitionContext ctx(traced_, mesh());
    PARTIR_ASSIGN_OR_RETURN(std::unique_ptr<Module> loops,
                            ReplayLoopForm(ctx, schedule_, count,
                                           deferred_propagation, options_));
    return partir::Print(*loops);
  };
  const int num_tactics = static_cast<int>(schedule_.size());
  switch (stage.kind_) {
    case Stage::Kind::kSource:
      return partir::Print(*traced_);
    case Stage::Kind::kAfterTactic:
      if (stage.index_ < 0 || stage.index_ >= num_tactics) {
        return InvalidArgumentError("no tactic ", stage.index_,
                                    "; the schedule has ", num_tactics,
                                    " tactics");
      }
      // PartIR-st's deferred propagation runs after the last tactic only.
      return print_loop_form(stage.index_ + 1,
                             /*deferred_propagation=*/false);
    case Stage::Kind::kLoops:
      return print_loop_form(num_tactics,
                             /*deferred_propagation=*/!options_.incremental);
    case Stage::Kind::kSpmd:
      return partir::Print(*result_->spmd.module);
  }
  return InternalError("unknown stage");
}

Status Executable::SaveResult(const std::string& path) const {
  return persist::WriteFileAtomic(
      path,
      persist::EncodeEntry(persist::PayloadKind::kPartitionResult,
                           "partir-partition-result",
                           persist::SerializePartitionResult(*result_)));
}

StatusOr<Executable> Executable::Respecialize(
    const std::vector<Tactic>& new_schedule) const {
  return Respecialize(new_schedule, options_);
}

StatusOr<Executable> Executable::Respecialize(
    const std::vector<Tactic>& new_schedule,
    const PartitionOptions& options) const {
  PARTIR_ASSIGN_OR_RETURN(
      std::shared_ptr<const PartitionResult> result,
      PartitionThroughCache(*cache_, traced_, mesh(), new_schedule, options));
  return Executable(module_, traced_, new_schedule, options,
                    std::move(result), cache_);
}

}  // namespace partir
