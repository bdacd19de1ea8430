#include "src/pass/pass_manager.h"

#include <chrono>

#include "src/support/str_util.h"

namespace partir {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

PassManager::PassManager(PipelineOptions options)
    : options_(std::move(options)) {}

PassManager& PassManager::AddPass(std::unique_ptr<Pass> pass,
                                  int tactic_index) {
  PARTIR_CHECK(pass != nullptr) << "PassManager::AddPass: null pass";
  entries_.push_back(Entry{std::move(pass), tactic_index, 1, 1});
  return *this;
}

PassManager& PassManager::AddFixpoint(std::vector<std::unique_ptr<Pass>> group,
                                      int max_iterations) {
  PARTIR_CHECK(!group.empty()) << "PassManager::AddFixpoint: empty group";
  PARTIR_CHECK(max_iterations >= 1);
  int size = static_cast<int>(group.size());
  for (int i = 0; i < size; ++i) {
    entries_.push_back(Entry{std::move(group[i]), -1,
                             i == 0 ? size : 1, i == 0 ? max_iterations : 1});
  }
  return *this;
}

StatusOr<int64_t> PassManager::RunOne(Entry& entry, PassStats& stats,
                                      PipelineState& state) {
  const int64_t ops_before = state.CurrentOpCount();
  if (stats.runs == 0) stats.ops_before = ops_before;
  state.changes = 0;
  auto start = Clock::now();
  Status status = entry.pass->Run(state);
  const double seconds = SecondsSince(start);
  stats.seconds += seconds;
  ++stats.runs;
  if (!status.ok()) {
    return Status(status.code(), StrCat("pass '", entry.pass->name(),
                                        "': ", status.message()));
  }
  stats.changes += state.changes;
  stats.ops_after = state.CurrentOpCount();
  // Collective counts are recorded the FIRST time the pass runs on the
  // lowered module: for fixpoint groups that is the first-iteration delta,
  // where formation actually happens — later iterations all see the
  // converged module and would erase the attribution.
  if (state.lowered && !stats.lowered) {
    stats.lowered = true;
    stats.collectives =
        CountCollectives(*state.result.spmd.module, state.result.spmd.mesh);
  }
  // Attribute the pass's wall-clock to its tactic's report (the paper's
  // per-tactic timing), once the tactic pass has created that report.
  if (entry.tactic_index >= 0 &&
      entry.tactic_index < static_cast<int>(state.result.tactics.size())) {
    state.result.tactics[entry.tactic_index].tactic_seconds += seconds;
  }
  return state.changes;
}

Status PassManager::VerifyAfter(const std::string& pass_name,
                                PipelineState& state) {
  auto start = Clock::now();
  std::vector<std::string> diags = state.VerifyCurrent();
  stats_.verify_seconds += SecondsSince(start);
  ++stats_.verify_runs;
  if (diags.empty()) return Status::Ok();
  return InternalError("IR verification failed after pass '", pass_name,
                       "': ", StrJoin(diags, "; "));
}

Status PassManager::Run(PipelineState& state) {
  auto total_start = Clock::now();
  stats_ = PipelineStats();  // a re-Run starts its accounting fresh
  stats_.passes.resize(entries_.size());
  for (size_t i = 0; i < entries_.size(); ++i) {
    stats_.passes[i].name = entries_[i].pass->name();
  }
  Status status = Status::Ok();
  for (size_t i = 0; i < entries_.size() && status.ok();) {
    const int group = entries_[i].group_size;
    if (group == 1 && entries_[i].max_iterations == 1) {
      Entry& entry = entries_[i];
      StatusOr<int64_t> changes = RunOne(entry, stats_.passes[i], state);
      status = changes.status();
      if (status.ok() && options_.verify_after_each_pass) {
        status = VerifyAfter(entry.pass->name(), state);
      }
      ++i;
      continue;
    }
    // Fixpoint group: repeat the member passes until an iteration applies
    // no changes (statistics accumulate per pass across iterations).
    for (int iteration = 0;
         iteration < entries_[i].max_iterations && status.ok(); ++iteration) {
      int64_t iteration_changes = 0;
      for (int member = 0; member < group && status.ok(); ++member) {
        Entry& entry = entries_[i + member];
        StatusOr<int64_t> changes =
            RunOne(entry, stats_.passes[i + member], state);
        status = changes.status();
        if (!status.ok()) break;
        iteration_changes += changes.value();
        if (options_.verify_after_each_pass) {
          status = VerifyAfter(entry.pass->name(), state);
        }
      }
      if (iteration_changes == 0) break;
    }
    i += group;
  }
  stats_.total_seconds = SecondsSince(total_start);
  state.result.pipeline = stats_;
  return status;
}

}  // namespace partir
