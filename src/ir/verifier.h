/**
 * @file
 * Module verifier: SSA dominance, placement (return ends a function body,
 * yield ends a loop region, slice appears only inside one, collectives stay
 * outside them, and only loops carry regions) and, for every op, agreement
 * with its typing rule (InferResultType, infer.h). Passes may assume
 * verified input. The verifier never aborts, so it is also the gate for
 * untrusted modules: deserialized artifacts and the analysis suite's first
 * stage.
 */
#ifndef PARTIR_IR_VERIFIER_H_
#define PARTIR_IR_VERIFIER_H_

#include <functional>
#include <string>
#include <vector>

#include "src/ir/ir.h"
#include "src/mesh/mesh.h"

namespace partir {

/** How diagnostics name op `index` of its block: "op 3 (all_reduce)". */
std::string OpLocation(int index, const Operation& op);

/**
 * Verifies every function of `module`, calling `error(location, message)`
 * once per finding. `mesh` sizes the collectives and loop ranges; without
 * one, a collective that resizes its operand is an error.
 */
void VerifyEach(
    const Module& module, const Mesh* mesh,
    const std::function<void(const std::string& location,
                             const std::string& message)>& error);

/** Verifies a module; returns "location: message" diagnostics (empty when
 *  valid). */
std::vector<std::string> Verify(const Module& module,
                                const Mesh* mesh = nullptr);

/** Verifies a single function: the pipeline verifies the traced function
 *  this way after each stage before lowering, without touching the rest of
 *  its module. */
std::vector<std::string> Verify(const Func& func, const Mesh* mesh = nullptr);

/** Verifies and aborts with diagnostics on failure (for tests/pipelines). */
void VerifyOrDie(const Module& module, const Mesh* mesh = nullptr);

}  // namespace partir

#endif  // PARTIR_IR_VERIFIER_H_
