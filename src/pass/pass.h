/**
 * @file
 * The pass framework the partitioning pipeline is built from (the paper's
 * compiler as a *sequence of composable rewrite stages*, made first-class):
 * a Pass is a named rewrite over the shared PipelineState; a PassManager
 * (pass_manager.h) owns an ordered pipeline of them, verifies the IR
 * between passes and records per-pass statistics. Every future rewrite
 * stage — serving batcher pre-passes, new collective formations, autopart
 * instrumentation — is one Pass subclass registered in the pipeline
 * declaration (pipeline.cc) instead of another splice into program.cc.
 */
#ifndef PARTIR_PASS_PASS_H_
#define PARTIR_PASS_PASS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/context.h"
#include "src/schedule/schedule.h"
#include "src/support/status.h"

namespace partir {

/**
 * The state one pipeline execution threads through its passes. Before
 * LowerToSpmdPass runs, the live IR is the traced function plus the
 * PartitionContext's tiling state; afterwards it is the device-local SPMD
 * module in result.spmd.
 */
struct PipelineState {
  PipelineState(PartitionContext& ctx_in,
                const std::vector<Tactic>& schedule_in,
                const PartitionOptions& options_in, PartitionResult& result_in)
      : ctx(ctx_in), schedule(schedule_in), options(options_in),
        result(result_in) {}

  PartitionContext& ctx;
  const std::vector<Tactic>& schedule;
  const PartitionOptions& options;
  PartitionResult& result;

  /** True once LowerToSpmdPass populated result.spmd. */
  bool lowered = false;

  /**
   * Rewrites / actions applied by the pass currently running. The manager
   * zeroes this before each pass and reads it afterwards — it feeds the
   * pass's statistics and drives fixpoint groups to convergence.
   */
  int64_t changes = 0;

  /** Ops in the live IR: the SPMD module once lowered, else the traced
   *  function (tiling state adds no ops until materialization). */
  int64_t CurrentOpCount() const;

  /** Runs the IR verifier over the live IR (empty result = valid). */
  std::vector<std::string> VerifyCurrent() const;
};

/** One named rewrite stage over the pipeline state. */
class Pass {
 public:
  virtual ~Pass() = default;

  /** Stable name, used in statistics and error messages. */
  virtual std::string name() const = 0;

  /**
   * Runs the pass. Report the number of rewrites/actions applied through
   * state.changes; return a typed Status on failure (the manager aborts
   * the pipeline and surfaces it unchanged).
   */
  virtual Status Run(PipelineState& state) = 0;
};

}  // namespace partir

#endif  // PARTIR_PASS_PASS_H_
