/**
 * @file
 * Memory-plan soundness verification.
 *
 * CheckMemoryPlan independently recomputes liveness from the program (the
 * dataflow framework's ComputeLiveness, a from-scratch reimplementation of
 * the planner's conventions) and diffs a MemoryPlan against it:
 *
 *  - every program value is planned, with matching def/last-use/numel and
 *    an in-bounds slot of exactly its size;
 *  - no two values whose recomputed live ranges overlap share a slot; two
 *    ranges may *touch* (first's last use == second's def) only through an
 *    in-place handoff;
 *  - in-place adoptions are legal: the result overwrites an operand of its
 *    own instruction that dies exactly there, with equal element count.
 *
 * CheckDeviceProgram adds stream-level checks over the compiled
 * instructions (slot bounds, result-size consistency, in-place wiring,
 * rendezvous-site coverage, input/output slot wiring). Dot, reduce,
 * transpose and broadcast_in_dim run strided kernels that read their
 * operands while writing the result, so their result slot must differ
 * from every operand slot, and each strided view must stay inside the
 * slot it reads or writes.
 *
 * The plan/func split is deliberate: tests hand the checker *forged* plans
 * for a real function and must get typed diagnostics, never a crash.
 */
#ifndef PARTIR_ANALYSIS_MEMORY_CHECKER_H_
#define PARTIR_ANALYSIS_MEMORY_CHECKER_H_

#include "src/analysis/diagnostics.h"
#include "src/exec/device_program.h"
#include "src/spmd/lowering.h"

namespace partir {
namespace analysis {

/** Verifies `plan` is a sound arena plan for `func` (checker id
 *  "memory-plan"). */
void CheckMemoryPlan(const Func& func, const exec::MemoryPlan& plan,
                     AnalysisReport& report);

/** Verifies the compiled stream against its own plan: CheckMemoryPlan on
 *  spmd's main function plus instruction-level wiring checks (checker id
 *  "exec-program"). */
void CheckDeviceProgram(const SpmdModule& spmd,
                        const exec::DeviceProgram& program,
                        AnalysisReport& report);

}  // namespace analysis
}  // namespace partir

#endif  // PARTIR_ANALYSIS_MEMORY_CHECKER_H_
