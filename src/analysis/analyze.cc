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

}  // namespace

AnalysisReport AnalyzeSpmd(const SpmdModule& spmd) {
  AnalysisReport report;
  if (spmd.module == nullptr || spmd.module->funcs().empty()) {
    report.Error(kVerify, "", "SPMD module holds no function");
    return report;
  }
  if (!VerifyStage(*spmd.module, &spmd.mesh, &spmd, report)) return report;
  LintModule(*spmd.module, &spmd.mesh, report);
  std::shared_ptr<const exec::DeviceProgram> program = spmd.exec_program;
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
  CheckCollectiveTraces(ExtractCollectiveTraces(*program, spmd.mesh, report),
                        report);
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
