#include "src/pass/pipeline.h"

#include <chrono>
#include <functional>

#include "src/analysis/analyze.h"
#include "src/core/materialize.h"
#include "src/exec/device_program.h"
#include "src/ir/passes.h"
#include "src/ir/verifier.h"
#include "src/sim/cost_model.h"
#include "src/spmd/collectives.h"

namespace partir {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/** A stage: rewrites the live IR and returns the number of actions,
 *  propagation steps or rewrites it applied. */
using StageFn = std::function<StatusOr<int64_t>()>;

/**
 * Keeps the books of one pipeline run in result.pipeline. Before lowering
 * the live IR is the traced function plus ctx's tiling state; afterwards it
 * is the device-local module in result.spmd.
 */
class StageRecorder {
 public:
  StageRecorder(PartitionContext& ctx, PartitionResult& result, bool verify)
      : ctx_(ctx), result_(result), verify_(verify) {}

  /** Opens the statistics of a new stage and returns their index. A
   *  fixpoint stage opens once and runs into them every round. */
  size_t Open(const std::string& name) {
    result_.pipeline.passes.emplace_back();
    result_.pipeline.passes.back().name = name;
    return result_.pipeline.passes.size() - 1;
  }

  /** Runs a stage with statistics of its own (see the other overload). */
  StatusOr<int64_t> Run(const std::string& name, const StageFn& stage,
                        int tactic = -1) {
    return Run(Open(name), stage, tactic);
  }

  /**
   * Runs `stage` into the statistics at `index`: times it, records the op
   * counts around it and, the first time it leaves a lowered module, the
   * collective counts; credits the time to TacticReport `tactic` (>= 0);
   * then verifies the live IR when asked to. Errors name the stage.
   */
  StatusOr<int64_t> Run(size_t index, const StageFn& stage, int tactic = -1) {
    PassStats& stats = result_.pipeline.passes[index];
    if (stats.runs == 0) stats.ops_before = OpCount();
    const Clock::time_point start = Clock::now();
    StatusOr<int64_t> changes = stage();
    const double seconds = SecondsSince(start);
    stats.seconds += seconds;
    ++stats.runs;
    if (!changes.ok()) {
      return Status(changes.status().code(),
                    StrCat("pass '", stats.name, "': ",
                           changes.status().message()));
    }
    stats.changes += *changes;
    stats.ops_after = OpCount();
    // Counted the first time only: in the fixpoint that is the round where
    // the stage formed what it formed; later rounds see the converged
    // module.
    if (Lowered() && !stats.lowered) {
      stats.lowered = true;
      stats.collectives =
          CountCollectives(*result_.spmd.module, result_.spmd.mesh);
    }
    if (tactic >= 0 && tactic < static_cast<int>(result_.tactics.size())) {
      result_.tactics[tactic].tactic_seconds += seconds;
    }
    if (verify_) PARTIR_RETURN_IF_ERROR(VerifyAfter(stats.name));
    return changes;
  }

 private:
  bool Lowered() const { return result_.spmd.module != nullptr; }

  int64_t OpCount() const {
    return CountOps(Lowered() ? *result_.spmd.main() : *ctx_.func());
  }

  Status VerifyAfter(const std::string& name) {
    const Clock::time_point start = Clock::now();
    std::vector<std::string> diags =
        Lowered() ? Verify(*result_.spmd.module, &result_.spmd.mesh)
                  : Verify(*ctx_.func(), &ctx_.mesh());
    result_.pipeline.verify_seconds += SecondsSince(start);
    ++result_.pipeline.verify_runs;
    if (diags.empty()) return Status::Ok();
    return InternalError("IR verification failed after pass '", name, "': ",
                         StrJoin(diags, "; "));
  }

  PartitionContext& ctx_;
  PartitionResult& result_;
  bool verify_;
};

/**
 * Propagation to fixpoint (Section 5.2.2). With
 * PartitionOptions::boundary_realization it consults the cost model at
 * realization boundaries instead of hard-coding the all_reduce
 * realization; a policy the caller already installed (tests, experiments)
 * wins over the default.
 */
int64_t Propagate(PartitionContext& ctx, const PartitionOptions& options) {
  if (options.boundary_realization && !ctx.HasRealizationPolicy()) {
    PartitionContext* context = &ctx;
    ctx.SetRealizationPolicy([context](BoundarySite& site) {
      return ChooseBoundaryRealization(*context, site);
    });
  }
  return ctx.Propagate();
}

/** Runs an automatic tactic's search (Section 3) into `report`. */
Status Search(PartitionContext& ctx, const AutomaticPartition& tactic,
              const DeviceSpec& device, TacticReport& report) {
  for (const std::string& axis : tactic.axes) {
    if (!ctx.mesh().HasAxis(axis)) {
      return InvalidArgumentError("tactic '", report.name,
                                  "': unknown mesh axis '", axis,
                                  "' (mesh is ", ctx.mesh().ToString(), ")");
    }
  }
  AutoResult found =
      AutomaticallyPartition(ctx, tactic.axes, tactic.options, device);
  report.actions_applied = static_cast<int>(found.actions.size());
  report.evaluations = found.evaluations;
  report.search_seconds = found.search_seconds;
  return Status::Ok();
}

/**
 * Runs the stages of tactics [0, count): tactic[i] applies a manual
 * tactic's actions or runs an automatic tactic's search and opens its
 * report; in incremental mode a manual tactic is then propagated. The
 * pipeline runs every tactic through it and ReplayLoopForm a prefix.
 */
Status RunTactics(StageRecorder& recorder, PartitionContext& ctx,
                  const std::vector<Tactic>& schedule, int count,
                  const PartitionOptions& options,
                  std::vector<TacticReport>& reports) {
  for (int i = 0; i < count; ++i) {
    const auto* manual = std::get_if<ManualPartition>(&schedule[i]);
    const auto* automatic = std::get_if<AutomaticPartition>(&schedule[i]);
    TacticReport report;
    if (manual != nullptr) {
      report.name = manual->name.empty() ? StrCat("manual(", manual->axis, ")")
                                         : manual->name;
    } else {
      report.name = automatic->name.empty() ? "auto" : automatic->name;
    }
    const StageFn apply = [&]() -> StatusOr<int64_t> {
      if (manual != nullptr) {
        PARTIR_ASSIGN_OR_RETURN(report.actions_applied,
                                ApplyManualTacticOrError(ctx, *manual));
      } else {
        PARTIR_RETURN_IF_ERROR(
            Search(ctx, *automatic, options.device, report));
      }
      report.conflicts = static_cast<int>(ctx.conflicts().size());
      reports.push_back(report);
      return report.actions_applied;
    };
    PARTIR_RETURN_IF_ERROR(
        recorder.Run(StrCat("tactic[", i, "]:", report.name), apply, i));
    if (manual != nullptr && options.incremental) {
      const StageFn propagate = [&]() -> StatusOr<int64_t> {
        const int64_t steps = Propagate(ctx, options);
        reports[i].conflicts = static_cast<int>(ctx.conflicts().size());
        return steps;
      };
      PARTIR_RETURN_IF_ERROR(recorder.Run("propagate", propagate, i));
    }
  }
  return Status::Ok();
}

/** The static-analysis stage: the report lands in result.analysis, and
 *  errors fail the pipeline quoting the first three. */
StatusOr<int64_t> Analyze(PartitionResult& result) {
  result.analysis = analysis::AnalyzeSpmd(result.spmd);
  const analysis::AnalysisReport& report = result.analysis;
  if (report.errors() == 0) {
    return static_cast<int64_t>(report.diagnostics.size());
  }
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

}  // namespace

StatusOr<PartitionResult> RunPartitionPipeline(
    PartitionContext& ctx, const std::vector<Tactic>& schedule,
    const PartitionOptions& options, const PipelineVariant& variant) {
  const Clock::time_point start = Clock::now();
  PartitionResult result;
  SpmdModule& spmd = result.spmd;
  StageRecorder recorder(ctx, result, options.verify_passes);
  PARTIR_RETURN_IF_ERROR(RunTactics(recorder, ctx, schedule,
                                    static_cast<int>(schedule.size()),
                                    options, result.tactics));
  if (!options.incremental) {
    // PartIR-st (Section 7.4): all tactics amalgamated, one propagation.
    PARTIR_RETURN_IF_ERROR(
        recorder.Run("propagate", [&] { return Propagate(ctx, options); }));
  }
  const StageFn lower = [&]() -> StatusOr<int64_t> {
    PARTIR_ASSIGN_OR_RETURN(spmd, LowerToSpmdOrError(ctx));
    return CountOps(*spmd.main());
  };
  PARTIR_RETURN_IF_ERROR(recorder.Run("lower-to-spmd", lower));

  // Collective optimization, rounds until one applies no rewrite.
  const size_t fuse = recorder.Open("fuse-gather-slice");
  const size_t form =
      variant.form_reduce_scatter ? recorder.Open("form-reduce-scatter") : 0;
  const size_t dce = recorder.Open("dce");
  for (int round = 0; round < 8; ++round) {
    PARTIR_ASSIGN_OR_RETURN(int64_t changes, recorder.Run(fuse, [&] {
      return RunSpmdPeephole(spmd, kRewriteGatherSlice);
    }));
    if (variant.form_reduce_scatter) {
      PARTIR_ASSIGN_OR_RETURN(int64_t formed, recorder.Run(form, [&] {
        return RunSpmdPeephole(spmd, kRewriteReduceScatter);
      }));
      changes += formed;
    }
    PARTIR_ASSIGN_OR_RETURN(int64_t erased, recorder.Run(dce, [&] {
      return EliminateDeadCode(*spmd.mutable_main());
    }));
    if (changes + erased == 0) break;
  }

  // The collective plan, then the device program that points into it; a
  // later mutation of the module drops both.
  PARTIR_RETURN_IF_ERROR(recorder.Run("plan-collectives", [&] {
    spmd.plan = BuildCollectivePlan(spmd.mesh, *spmd.module);
    return int64_t{0};
  }));
  const StageFn compile = [&]() -> StatusOr<int64_t> {
    PARTIR_ASSIGN_OR_RETURN(spmd.exec_program,
                            exec::CompileDeviceProgram(spmd));
    return int64_t{0};
  };
  PARTIR_RETURN_IF_ERROR(recorder.Run("compile-device-programs", compile));
  if (options.analyze) {
    PARTIR_RETURN_IF_ERROR(
        recorder.Run("static-analysis", [&] { return Analyze(result); }));
  }
  result.pipeline.total_seconds = SecondsSince(start);

  result.collectives = CountCollectives(*spmd.module, spmd.mesh);
  result.estimate = EstimateSpmd(spmd, options.device);
  result.conflicts = ctx.conflicts();
  result.pipeline.analysis_checkers =
      static_cast<int64_t>(result.analysis.checkers_run.size());
  result.pipeline.analysis_errors = result.analysis.errors();
  result.pipeline.analysis_warnings = result.analysis.warnings();
  // partition_seconds (Figure 8) covers the finalization too.
  result.partition_seconds = SecondsSince(start);
  return result;
}

StatusOr<std::unique_ptr<Module>> ReplayLoopForm(
    PartitionContext& ctx, const std::vector<Tactic>& schedule, int count,
    bool deferred_propagation, const PartitionOptions& options) {
  PARTIR_CHECK(count >= 0 && count <= static_cast<int>(schedule.size()))
      << "ReplayLoopForm: " << count << " of " << schedule.size()
      << " tactics";
  PartitionResult replay;  // the replayed reports and statistics go unread
  // Not verified stage by stage: the materialized form is verified below.
  StageRecorder recorder(ctx, replay, /*verify=*/false);
  PARTIR_RETURN_IF_ERROR(
      RunTactics(recorder, ctx, schedule, count, options, replay.tactics));
  if (deferred_propagation) {
    PARTIR_RETURN_IF_ERROR(
        recorder.Run("propagate", [&] { return Propagate(ctx, options); }));
  }
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
