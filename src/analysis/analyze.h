/**
 * @file
 * Entry points of the static analysis suite: run every checker over a
 * lowered SPMD module (and its compiled device program) or over a plain
 * traced module, collecting a single AnalysisReport.
 *
 * Wired three ways: the static-analysis pipeline pass
 * (PartitionOptions::analyze), Executable::Analyze() on the facade, and
 * the tools/partir_lint CLI over saved programs.
 */
#ifndef PARTIR_ANALYSIS_ANALYZE_H_
#define PARTIR_ANALYSIS_ANALYZE_H_

#include "src/analysis/diagnostics.h"
#include "src/ir/ir.h"
#include "src/spmd/lowering.h"

namespace partir {
namespace analysis {

/**
 * Runs the full suite over a lowered module. The IR verifier runs first
 * (checker id "ir-verify": every op against its typing rule over the mesh,
 * placement, and the input/output shardings against the mesh and the
 * signature). A module that does not verify gets only those errors, with
 * a note that the later checkers were skipped. Otherwise lint runs, then
 * the collective deadlock/mismatch detector and the memory-plan verifier
 * over spmd.exec_program (compiled ad hoc when absent; a compile failure
 * is itself an "exec-program" error that ends the report). Never aborts
 * on malformed input.
 */
AnalysisReport AnalyzeSpmd(const SpmdModule& spmd);

/** Verifies, then lints, a traced (pre-partition, mesh-less) module. */
AnalysisReport AnalyzeModule(const Module& module);

}  // namespace analysis
}  // namespace partir

#endif  // PARTIR_ANALYSIS_ANALYZE_H_
