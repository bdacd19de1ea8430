#include "src/api/executable.h"

#include "src/analysis/analyze.h"
#include "src/api/partition_cache.h"
#include "src/exec/executor.h"
#include "src/exec/worker_pool.h"
#include "src/ir/fingerprint.h"
#include "src/ir/printer.h"
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
      RunSpmd(result_.spmd, inputs, run_options);
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
  return EstimateSpmd(result_.spmd, device);
}

StatusOr<exec::MemoryStats> Executable::memory_stats() const {
  std::shared_ptr<const exec::DeviceProgram> program =
      result_.spmd.exec_program;
  if (program == nullptr) {
    PARTIR_ASSIGN_OR_RETURN(program,
                            exec::CompileDeviceProgram(result_.spmd));
  }
  exec::MemoryStats stats = exec::ComputeMemoryStats(result_.spmd, *program);
  stats.last_run_allocations =
      runtime_->last_run_allocations.load(std::memory_order_relaxed);
  return stats;
}

analysis::AnalysisReport Executable::Analyze() const {
  return analysis::AnalyzeSpmd(result_.spmd);
}

StatusOr<std::string> Executable::Print(Stage stage) const {
  // Every intermediate form is served from the pass manager's stage
  // snapshots; only the endpoints (the traced source, the live device-local
  // module) are always present without capture.
  switch (stage.kind_) {
    case Stage::Kind::kSource:
      return partir::Print(*traced_);
    case Stage::Kind::kAfterTactic: {
      if (stage.index_ < 0 ||
          stage.index_ >= static_cast<int>(result_.tactics.size())) {
        return InvalidArgumentError("no tactic ", stage.index_,
                                    "; the schedule has ",
                                    result_.tactics.size(), " tactics");
      }
      for (const StageSnapshot& snapshot : result_.snapshots) {
        if (snapshot.tactic_index == stage.index_ &&
            snapshot.form == StageSnapshot::Form::kLoops) {
          return partir::Print(*snapshot.module);
        }
      }
      return FailedPreconditionError(
          "loop form after tactic '", result_.tactics[stage.index_].name,
          "' was not captured; partition with "
          "PartitionOptions::capture_stages=true");
    }
    case Stage::Kind::kLoops:
      for (const StageSnapshot& snapshot : result_.snapshots) {
        if (snapshot.final_loops) return partir::Print(*snapshot.module);
      }
      return FailedPreconditionError(
          "final loop form was not captured; partition with "
          "PartitionOptions::capture_stages=true");
    case Stage::Kind::kSpmd:
      return partir::Print(*result_.spmd.module);
  }
  return InternalError("unknown stage");
}

Status Executable::SaveResult(const std::string& path) const {
  return persist::WriteFileAtomic(
      path,
      persist::EncodeEntry(persist::PayloadKind::kPartitionResult,
                           "partir-partition-result",
                           persist::SerializePartitionResult(result_)));
}

StatusOr<Executable> Executable::Respecialize(
    const std::vector<Tactic>& new_schedule) const {
  return Respecialize(new_schedule, options_);
}

StatusOr<Executable> Executable::Respecialize(
    const std::vector<Tactic>& new_schedule,
    const PartitionOptions& options) const {
  // Fingerprint the live trace (not a snapshot from construction time) so
  // a trace mutated since Partition can never serve a stale cache entry.
  PARTIR_ASSIGN_OR_RETURN(
      PartitionResult result,
      PartitionThroughCache(*cache_, FingerprintFunc(*traced_), traced_,
                            mesh(), new_schedule, options));
  return Executable(module_, traced_, options, std::move(result), cache_);
}

}  // namespace partir
