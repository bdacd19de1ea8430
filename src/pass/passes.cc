#include "src/pass/passes.h"

#include "src/analysis/analyze.h"
#include "src/exec/device_program.h"
#include "src/ir/passes.h"
#include "src/spmd/collectives.h"

namespace partir {
namespace {

/** The report a tactic pass opened for its index (pipeline order guarantees
 *  the tactic pass ran first). */
TacticReport& ReportFor(PipelineState& state, int tactic_index) {
  PARTIR_CHECK(tactic_index >= 0 &&
               tactic_index < static_cast<int>(state.result.tactics.size()))
      << "no TacticReport opened for tactic " << tactic_index;
  return state.result.tactics[tactic_index];
}

}  // namespace

std::string ManualTacticPass::name() const {
  return StrCat("tactic[", tactic_index_, "]:",
                tactic_.name.empty() ? StrCat("manual(", tactic_.axis, ")")
                                     : tactic_.name);
}

Status ManualTacticPass::Run(PipelineState& state) {
  TacticReport report;
  report.name = tactic_.name.empty() ? StrCat("manual(", tactic_.axis, ")")
                                     : tactic_.name;
  PARTIR_ASSIGN_OR_RETURN(report.actions_applied,
                          ApplyManualTacticOrError(state.ctx, tactic_));
  report.conflicts = static_cast<int>(state.ctx.conflicts().size());
  state.changes = report.actions_applied;
  state.result.tactics.push_back(std::move(report));
  return Status::Ok();
}

std::string AutoTacticPass::name() const {
  return StrCat("tactic[", tactic_index_, "]:",
                tactic_.name.empty() ? "auto" : tactic_.name);
}

Status AutoTacticPass::Run(PipelineState& state) {
  TacticReport report;
  report.name = tactic_.name.empty() ? "auto" : tactic_.name;
  for (const std::string& axis : tactic_.axes) {
    if (!state.ctx.mesh().HasAxis(axis)) {
      return InvalidArgumentError("tactic '", report.name,
                                  "': unknown mesh axis '", axis,
                                  "' (mesh is ", state.ctx.mesh().ToString(),
                                  ")");
    }
  }
  AutoResult found = AutomaticallyPartition(state.ctx, tactic_.axes,
                                            tactic_.options,
                                            state.options.device);
  report.actions_applied = static_cast<int>(found.actions.size());
  report.evaluations = found.evaluations;
  report.search_seconds = found.search_seconds;
  report.conflicts = static_cast<int>(state.ctx.conflicts().size());
  state.changes = report.actions_applied;
  state.result.tactics.push_back(std::move(report));
  return Status::Ok();
}

std::string PropagatePass::name() const { return "propagate"; }

Status PropagatePass::Run(PipelineState& state) {
  // Boundary-aware realization (PartitionOptions::boundary_realization):
  // propagation consults the cost model at realization boundaries instead
  // of hard-coding the all_reduce realization. A policy the caller already
  // installed (tests, experiments) wins over the default.
  if (state.options.boundary_realization &&
      !state.ctx.HasRealizationPolicy()) {
    PartitionContext* ctx = &state.ctx;
    state.ctx.SetRealizationPolicy([ctx](BoundarySite& site) {
      return ChooseBoundaryRealization(*ctx, site);
    });
  }
  state.changes = state.ctx.Propagate();
  if (tactic_index_ >= 0) {
    ReportFor(state, tactic_index_).conflicts =
        static_cast<int>(state.ctx.conflicts().size());
  }
  return Status::Ok();
}

std::string LowerToSpmdPass::name() const { return "lower-to-spmd"; }

Status LowerToSpmdPass::Run(PipelineState& state) {
  PARTIR_ASSIGN_OR_RETURN(state.result.spmd, LowerToSpmdOrError(state.ctx));
  state.lowered = true;
  state.changes = CountOps(*state.result.spmd.main());
  return Status::Ok();
}

std::string FuseGatherSlicePass::name() const { return "fuse-gather-slice"; }

Status FuseGatherSlicePass::Run(PipelineState& state) {
  PARTIR_CHECK(state.lowered) << "fuse-gather-slice before lowering";
  state.changes = RunSpmdPeephole(state.result.spmd, kRewriteGatherSlice);
  return Status::Ok();
}

std::string FormReduceScatterPass::name() const {
  return "form-reduce-scatter";
}

Status FormReduceScatterPass::Run(PipelineState& state) {
  PARTIR_CHECK(state.lowered) << "form-reduce-scatter before lowering";
  state.changes = RunSpmdPeephole(
      state.result.spmd,
      kRewriteReduceScatter | kRewriteReduceScatterPartial);
  return Status::Ok();
}

std::string DcePass::name() const { return "dce"; }

Status DcePass::Run(PipelineState& state) {
  PARTIR_CHECK(state.lowered) << "dce before lowering";
  state.changes = EliminateDeadCode(*state.result.spmd.mutable_main());
  return Status::Ok();
}

std::string PlanCollectivesPass::name() const { return "plan-collectives"; }

Status PlanCollectivesPass::Run(PipelineState& state) {
  PARTIR_CHECK(state.lowered) << "plan-collectives before lowering";
  state.result.spmd.plan = BuildCollectivePlan(state.result.spmd.mesh,
                                               *state.result.spmd.module);
  return Status::Ok();
}

std::string CompileDeviceProgramsPass::name() const {
  return "compile-device-programs";
}

Status CompileDeviceProgramsPass::Run(PipelineState& state) {
  PARTIR_CHECK(state.lowered) << "compile-device-programs before lowering";
  PARTIR_ASSIGN_OR_RETURN(state.result.spmd.exec_program,
                          exec::CompileDeviceProgram(state.result.spmd));
  return Status::Ok();
}

std::string StaticAnalysisPass::name() const { return "static-analysis"; }

Status StaticAnalysisPass::Run(PipelineState& state) {
  PARTIR_CHECK(state.lowered) << "static-analysis before lowering";
  state.result.analysis = analysis::AnalyzeSpmd(state.result.spmd);
  const analysis::AnalysisReport& report = state.result.analysis;
  state.changes = static_cast<int>(report.diagnostics.size());
  if (report.errors() == 0) return Status::Ok();
  // Quote the first few diagnostics so the failure is actionable without
  // re-running analysis by hand.
  std::string detail;
  int quoted = 0;
  for (const analysis::Diagnostic& diag : report.diagnostics) {
    if (diag.severity != analysis::Severity::kError) continue;
    detail = StrCat(detail, "\n  ", diag.ToString());
    if (++quoted == 3) break;
  }
  return InternalError("static analysis found ", report.errors(),
                       " error(s)", detail);
}

}  // namespace partir
