/**
 * @file
 * PassManager: owns an ordered pipeline of passes and runs them over a
 * PipelineState with the cross-cutting machinery every stage shares:
 *   - inter-pass IR verification (debug-on by default; a violation is a
 *     typed kInternal Status naming the pass, never an abort),
 *   - per-pass wall-clock, op-delta and rewrite statistics (PipelineStats),
 *   - per-pass collective counts once the module is lowered (the per-stage
 *     Table 3 breakdown used to debug collective formation),
 *   - fixpoint groups: a run of passes repeated until an iteration applies
 *     no rewrites (the collective-optimization stages).
 */
#ifndef PARTIR_PASS_PASS_MANAGER_H_
#define PARTIR_PASS_PASS_MANAGER_H_

#include <memory>
#include <string>
#include <vector>

#include "src/pass/pass.h"
#include "src/pass/stats.h"

namespace partir {

class PassManager {
 public:
  explicit PassManager(PipelineOptions options = {});

  /** Appends a pass to the pipeline. A `tactic_index` >= 0 attributes the
   *  pass's wall-clock to that tactic's TacticReport. */
  PassManager& AddPass(std::unique_ptr<Pass> pass, int tactic_index = -1);

  /**
   * Appends a fixpoint group: the passes run in order, and the whole group
   * repeats until an iteration applies no changes (or max_iterations).
   * Statistics accumulate per pass across iterations.
   */
  PassManager& AddFixpoint(std::vector<std::unique_ptr<Pass>> group,
                           int max_iterations = 8);

  /**
   * Runs the pipeline. Stops at the first pass error or verifier failure;
   * stats() is valid for the passes that ran either way.
   */
  Status Run(PipelineState& state);

  const PipelineStats& stats() const { return stats_; }
  const PipelineOptions& options() const { return options_; }
  int num_passes() const { return static_cast<int>(entries_.size()); }
  const Pass& pass(int i) const { return *entries_.at(i).pass; }

 private:
  struct Entry {
    std::unique_ptr<Pass> pass;
    int tactic_index = -1;   // TacticReport the pass's wall-clock goes to
    int group_size = 1;      // >1 on the head of a fixpoint group
    int max_iterations = 1;  // group iterations (head entry only)
  };

  /** Runs one pass, updating its stats slot; returns changes applied. */
  StatusOr<int64_t> RunOne(Entry& entry, PassStats& stats,
                           PipelineState& state);
  /** Verifies the live IR after `pass_name` ran; typed error on failure. */
  Status VerifyAfter(const std::string& pass_name, PipelineState& state);

  PipelineOptions options_;
  std::vector<Entry> entries_;
  PipelineStats stats_;
};

}  // namespace partir

#endif  // PARTIR_PASS_PASS_MANAGER_H_
