/**
 * @file
 * Reference interpreter for the array IR and PartIR:Core. Loops execute with
 * the paper's *sequential* semantics (Figure 13): a #tile loop concatenates
 * per-iteration results along the tiled dim, a #sum loop accumulates them,
 * and an [any] loop evaluates a single iteration. This gives an executable
 * specification against which partitioned programs are verified. It also
 * owns the elementwise span kernels that every engine runs.
 */
#ifndef PARTIR_INTERP_INTERPRETER_H_
#define PARTIR_INTERP_INTERPRETER_H_

#include <map>
#include <vector>

#include "src/interp/tensor.h"
#include "src/ir/ir.h"

namespace partir {

/** Environment mapping IR values to runtime tensors. */
using Env = std::map<const Value*, Tensor>;

/** Evaluates a single operation given its operand tensors. */
std::vector<Tensor> EvalOp(const Operation& op,
                           const std::vector<Tensor>& operands);

/**
 * EvalOp over operand pointers: the same kernels without copying operand
 * tensors into the call — the compiled executor's generic fallback path.
 */
std::vector<Tensor> EvalOpRef(const Operation& op,
                              const std::vector<const Tensor*>& operands);

/**
 * Evaluates one op — including PartIR:Core region ops (loop / slice, with
 * the sequential loop semantics of Figure 13) — against an external
 * environment, as Evaluate does for each op of a function.
 */
void EvalOpInEnv(const Operation& op, Env& env);

/**
 * Span kernels of the unary / binary elementwise ops: out[i] = op(in[i]),
 * or op(a[i], b[i]), for i in [0, n). `out` may be exactly `in`, `a` or
 * `b`, but must not otherwise overlap them. The walker, the compiled
 * executor's fused chains and single ops, and the collectives' reductions
 * all run these, so every engine applies the same per-element expression.
 */
void ApplyUnarySpan(OpKind kind, const float* in, float* out, int64_t n);
void ApplyBinarySpan(OpKind kind, const float* a, const float* b, float* out,
                     int64_t n);

/**
 * Evaluates `func` on the given positional inputs, returning the values of
 * its return op. Handles array ops and PartIR:Core loop/slice ops; SPMD
 * collectives are rejected (use the SPMD interpreter).
 */
std::vector<Tensor> Evaluate(const Func& func,
                             const std::vector<Tensor>& inputs);

/** Builds deterministic random inputs matching a function's signature. */
std::vector<Tensor> MakeRandomInputs(const Func& func, uint64_t seed,
                                     float index_modulus = 0.0f);

}  // namespace partir

#endif  // PARTIR_INTERP_INTERPRETER_H_
