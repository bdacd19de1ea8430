/**
 * @file
 * IR lint: semantic hygiene warnings over modules the verifier accepted
 * (the analysis entry points verify first). Checker ids:
 *  - "dead-value": ops none of whose results are ever read;
 *  - "redundant-collective": collectives the replication dataflow proves
 *    unnecessary — an all_gather of a value already replicated along the
 *    gather axes, or an all_reduce of an already-replicated value (for
 *    "sum" that is not even a no-op: it multiplies by the group size — a
 *    likely double-reduce bug).
 */
#ifndef PARTIR_ANALYSIS_LINT_H_
#define PARTIR_ANALYSIS_LINT_H_

#include "src/analysis/diagnostics.h"
#include "src/ir/ir.h"
#include "src/mesh/mesh.h"

namespace partir {
namespace analysis {

/**
 * Lints every function of `module`, which must verify. `mesh` may be null
 * (traced, pre-mesh modules): the replication-based redundancy warnings
 * then stay off.
 */
void LintModule(const Module& module, const Mesh* mesh,
                AnalysisReport& report);

}  // namespace analysis
}  // namespace partir

#endif  // PARTIR_ANALYSIS_LINT_H_
