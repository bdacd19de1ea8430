#include "src/analysis/analyze.h"

#include <memory>

#include "src/analysis/collective_checker.h"
#include "src/analysis/lint.h"
#include "src/analysis/memory_checker.h"
#include "src/exec/device_program.h"
#include "src/ir/verifier.h"
#include "src/support/str_util.h"

namespace partir {
namespace analysis {
namespace {

constexpr char kVerify[] = "ir-verify";

/**
 * The gate every other checker relies on: the IR verifier over `mesh`
 * (null for traced modules) and, for a lowered module, its recorded
 * shardings. Returns true when both hold; if not, notes that the later
 * checkers are skipped, since their conclusions would be meaningless over
 * ill-typed IR.
 */
bool VerifyStage(const Module& module, const Mesh* mesh,
                 const SpmdModule* spmd, AnalysisReport& report) {
  report.checkers_run.push_back("verify");
  auto error = [&](const std::string& location, const std::string& message) {
    report.Error(kVerify, location, message);
  };
  VerifyEach(module, mesh, error);
  if (spmd != nullptr && report.ok()) VerifyShardings(*spmd, error);
  if (report.ok()) return true;
  report.Note(kVerify, "",
              "the module does not verify: the later checkers were skipped");
  return false;
}

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
  if (spmd.module == nullptr || spmd.module->funcs().empty()) {
    report.Error(kVerify, "", "SPMD module holds no function");
    return report;
  }
  if (!VerifyStage(*spmd.module, &spmd.mesh, &spmd, report)) return report;
  LintModule(*spmd.module, &spmd.mesh, report);
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
  if (VerifyStage(module, /*mesh=*/nullptr, /*spmd=*/nullptr, report)) {
    LintModule(module, /*mesh=*/nullptr, report);
  }
  return report;
}

}  // namespace analysis
}  // namespace partir
