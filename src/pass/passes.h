/**
 * @file
 * The registered passes of the partitioning pipeline — the paper's rewrite
 * stages (schedule actions -> propagation -> SPMD lowering -> collective
 * optimization) as first-class Pass subclasses. The pipeline itself is
 * declared once, in pipeline.cc; these are its building blocks (and the
 * extension points future stages slot between).
 */
#ifndef PARTIR_PASS_PASSES_H_
#define PARTIR_PASS_PASSES_H_

#include <memory>
#include <string>

#include "src/pass/pass.h"

namespace partir {

/** Applies one manual tactic's tile/atomic actions (Section 3) and opens
 *  the tactic's TacticReport. */
class ManualTacticPass : public Pass {
 public:
  ManualTacticPass(int tactic_index, ManualPartition tactic)
      : tactic_index_(tactic_index), tactic_(std::move(tactic)) {}
  std::string name() const override;
  Status Run(PipelineState& state) override;

 private:
  int tactic_index_;
  ManualPartition tactic_;
};

/** Runs the MCTS search of an automatic tactic and opens its report. */
class AutoTacticPass : public Pass {
 public:
  AutoTacticPass(int tactic_index, AutomaticPartition tactic)
      : tactic_index_(tactic_index), tactic_(std::move(tactic)) {}
  std::string name() const override;
  Status Run(PipelineState& state) override;

 private:
  int tactic_index_;
  AutomaticPartition tactic_;
};

/** Propagation to fixpoint (Section 5.2.2), wrapping
 *  PartitionContext::Propagate. tactic_index >= 0 updates that tactic's
 *  conflict count (incremental mode); -1 is the single deferred
 *  propagation of PartIR-st. */
class PropagatePass : public Pass {
 public:
  explicit PropagatePass(int tactic_index = -1)
      : tactic_index_(tactic_index) {}
  std::string name() const override;
  Status Run(PipelineState& state) override;

 private:
  int tactic_index_;
};

/** Lowers the partitioning state to the device-local SPMD module
 *  (Section 6 / Appendix C); after it, passes rewrite result.spmd. */
class LowerToSpmdPass : public Pass {
 public:
  std::string name() const override;
  Status Run(PipelineState& state) override;
};

/** Gather/slice fusion family of the SPMD peephole: all_gather/all_slice
 *  cancellation and all_to_all formation, slice CSE, slice-of-constant
 *  folding, no-op collective removal. */
class FuseGatherSlicePass : public Pass {
 public:
  std::string name() const override;
  Status Run(PipelineState& state) override;
};

/** Reduce-scatter formation family: all_reduce->all_slice chains (including
 *  the multi-axis partial-residual embedding case), adjacent all_reduce
 *  merging, and partial-sum linearity fusion. */
class FormReduceScatterPass : public Pass {
 public:
  std::string name() const override;
  Status Run(PipelineState& state) override;
};

/** Dead-code elimination over the lowered module. */
class DcePass : public Pass {
 public:
  std::string name() const override;
  Status Run(PipelineState& state) override;
};

/** Precomputes the collective plan (replica groups, parsed attributes) so
 *  Executable::Run skips per-call coordinate arithmetic. Must run last: any
 *  later mutation drops the plan again (SpmdModule::mutable_module). */
class PlanCollectivesPass : public Pass {
 public:
  std::string name() const override;
  Status Run(PipelineState& state) override;
};

/** Compiles the device-local program to the flat instruction stream +
 *  liveness arena plan the compiled executor runs (src/exec/). Runs after
 *  plan-collectives (the instructions point into the collective plan);
 *  like the plan, the program drops on any later module mutation. */
class CompileDeviceProgramsPass : public Pass {
 public:
  std::string name() const override;
  Status Run(PipelineState& state) override;
};

/** Runs the static analysis suite (src/analysis/: lint, shape consistency,
 *  collective deadlock/mismatch detection, memory-plan verification) over
 *  the final lowered module + compiled program. The report lands in
 *  result.analysis; errors fail the pipeline with a typed kInternal Status
 *  quoting the first diagnostics. Registered last, behind
 *  PartitionOptions::analyze. */
class StaticAnalysisPass : public Pass {
 public:
  std::string name() const override;
  Status Run(PipelineState& state) override;
};

}  // namespace partir

#endif  // PARTIR_PASS_PASSES_H_
