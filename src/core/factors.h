/**
 * @file
 * The tile-mapping registry (TMR, paper Section 5.2.1), expressed through
 * per-operation *factors*: einsum-like groups of dimensions that must be
 * tiled together. A factor with a result dimension corresponds to TMR
 * entries of the form (#tile<d_i>, ...) -> #tile<d_r>; a contracting factor
 * corresponds to (..., #tile<d_i>, ...) -> #sum.
 *
 * This is the generalization the paper's successor system Shardy adopted as
 * "sharding factors" (Section 9); deriving the TMR from factors lets us
 * implement the rewriting code once for all operators.
 */
#ifndef PARTIR_CORE_FACTORS_H_
#define PARTIR_CORE_FACTORS_H_

#include <string>
#include <vector>

#include "src/ir/ir.h"

namespace partir {

/**
 * One dimension group of an operation.
 *
 * `operand_dims[i]` is the dimension of operand i participating in this
 * factor, or -1 if operand i does not participate. `result_dim` is the
 * corresponding dimension of result 0, or -1 for contracting factors.
 * Tiling a contracting factor along a mesh axis rewrites the op into a
 * #sum loop over that axis (an all_reduce after SPMD lowering).
 */
struct Factor {
  std::vector<int> operand_dims;
  int result_dim = -1;
  bool contracting = false;
  std::string reduction = "sum";
};

/** The full tiling specification of one operation. */
struct OpShardingSpec {
  /** False for ops propagation must not cross (reshape in the general case,
   *  concatenated dims, spatial conv dims — paper Section 8). */
  bool propagatable = true;
  std::vector<Factor> factors;

  /** Finds the factor with the given result dim, or -1. */
  int FactorForResultDim(int dim) const {
    for (size_t i = 0; i < factors.size(); ++i) {
      if (factors[i].result_dim == dim) return static_cast<int>(i);
    }
    return -1;
  }

  /** Finds the factor in which operand `o` participates at dim `d`, or -1. */
  int FactorForOperandDim(int o, int d) const {
    for (size_t i = 0; i < factors.size(); ++i) {
      const std::vector<int>& dims = factors[i].operand_dims;
      if (o < static_cast<int>(dims.size()) && dims[o] == d) {
        return static_cast<int>(i);
      }
    }
    return -1;
  }
};

/**
 * Returns the sharding spec of an operation — the op's row of the TMR.
 * Ops that cannot be tiled at all return propagatable=false.
 */
OpShardingSpec GetShardingSpec(const Operation& op);

/**
 * Copies `src`'s attributes onto `clone`, a copy of `src` emitted at its
 * device-local result type (SPMD lowering, loop-form materialization).
 * Only a static_slice's attributes depend on its result's size: the dims it
 * may be tiled on are the ones it takes in full, so its bounds become
 * device-local, limits = starts + the local result dims.
 */
void CopyLocalAttrs(const Operation& src, Operation& clone);

/**
 * Value-provenance queries used to classify propagation realization
 * boundaries (PartitionContext::SetRealizationPolicy). They are purely
 * structural — they walk defining ops, never sharding state — so the cost
 * model can classify a boundary site without depending on propagation
 * internals.
 */

/** True when `v` is (within `depth` elementwise ops of) an rsqrt output —
 *  the signature of a normalization statistic (1/sqrt(var + eps)). */
bool ChainContainsRsqrt(const Value* v, int depth = 4);

/**
 * True when `v` is the rescale output of a normalization: a chain of muls
 * one of whose operands broadcasts an rsqrt-derived statistic. The walk
 * crosses muls only, so gradient accumulations (adds on the backward
 * residual path) never classify as normalization outputs.
 */
bool IsNormalizationOutput(const Value* v);

/**
 * True when `op` is a statistics reduce: a single-dim reduction over its
 * operand's innermost dim — the normalization/softmax family, as opposed to
 * batch or loss reductions. When non-null, `*second_moment` is set to
 * whether the reduced operand is x*x (the forward variance accumulation).
 */
bool IsStatisticsReduce(const Operation& op, bool* second_moment = nullptr);

}  // namespace partir

#endif  // PARTIR_CORE_FACTORS_H_
