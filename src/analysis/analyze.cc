#include "src/analysis/analyze.h"

#include <memory>

#include "src/analysis/collective_checker.h"
#include "src/analysis/lint.h"
#include "src/analysis/memory_checker.h"
#include "src/analysis/shape_checker.h"
#include "src/exec/device_program.h"
#include "src/support/str_util.h"

namespace partir {
namespace analysis {
namespace {

/**
 * Whether `plan` indexes this module instance's values. Cache-hit clones
 * share the cached entry's immutable compiled program, whose plan keys the
 * *original* module's Value pointers — structurally identical, but useless
 * for verifying the clone. One probe suffices: the pointer sets either
 * match completely or not at all.
 */
bool PlanIndexesModule(const SpmdModule& spmd, const exec::MemoryPlan& plan) {
  const Func* main = spmd.main();
  if (main == nullptr) return false;
  const Block& body = main->body();
  if (body.num_args() > 0) return plan.index.count(body.arg(0)) > 0;
  for (const auto& op : body.ops()) {
    if (op->num_results() > 0) return plan.index.count(op->result(0)) > 0;
  }
  return true;  // nothing to plan either way
}

}  // namespace

AnalysisReport AnalyzeSpmd(const SpmdModule& spmd) {
  AnalysisReport report;
  if (spmd.module == nullptr) {
    report.Error("ir-lint", "", "SPMD module holds no IR");
    return report;
  }
  LintModule(*spmd.module, &spmd.mesh, report);
  if (report.errors() > 0) {
    report.Note("ir-lint", "",
                "structural lint errors: the shape, collective and "
                "memory checkers were skipped");
    return report;
  }
  CheckShapes(spmd, report);
  CheckCollectives(spmd, report);
  std::shared_ptr<const exec::DeviceProgram> program = spmd.exec_program;
  if (program != nullptr && !PlanIndexesModule(spmd, program->plan)) {
    program = nullptr;  // another clone's program: recompile to verify
  }
  if (program == nullptr) {
    StatusOr<std::shared_ptr<const exec::DeviceProgram>> compiled =
        exec::CompileDeviceProgram(spmd);
    if (!compiled.ok()) {
      report.Error("exec-program", "",
                   StrCat("device program does not compile: ",
                          compiled.status().message()));
      return report;
    }
    program = std::move(compiled).value();
  }
  CheckDeviceProgram(spmd, *program, report);
  return report;
}

AnalysisReport AnalyzeModule(const Module& module) {
  AnalysisReport report;
  LintModule(module, /*mesh=*/nullptr, report);
  return report;
}

}  // namespace analysis
}  // namespace partir
