/**
 * @file
 * Entry points of the static analysis suite: run every checker over a
 * lowered SPMD module (and its compiled device program) or lint a plain
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
 * Runs the full suite over a lowered module: IR lint first (structural
 * errors there make the other checkers meaningless — they are skipped with
 * a note), then shape consistency, the collective deadlock/mismatch
 * detector, and the memory-plan verifier over spmd.exec_program (compiled
 * ad hoc when absent; a compile failure is itself a diagnostic). Never
 * aborts on malformed input.
 */
AnalysisReport AnalyzeSpmd(const SpmdModule& spmd);

/** Lints a traced (pre-partition, mesh-less) module. */
AnalysisReport AnalyzeModule(const Module& module);

}  // namespace analysis
}  // namespace partir

#endif  // PARTIR_ANALYSIS_ANALYZE_H_
