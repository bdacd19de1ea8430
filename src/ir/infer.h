/**
 * @file
 * The typing rule of every op kind, in one place: the builder constructs
 * each op through it and the verifier checks each op against it, so what a
 * kind requires of its operands and attributes, and what its result type
 * is, is written down once.
 */
#ifndef PARTIR_IR_INFER_H_
#define PARTIR_IR_INFER_H_

#include "src/ir/ir.h"
#include "src/mesh/mesh.h"
#include "src/support/status.h"

namespace partir {

/**
 * The result type `op` must have, derived from its kind, operands and
 * attributes. Every attribute the kind requires is checked to be present,
 * of the right type and in range.
 *
 * Some kinds declare their result instead: constant, iota, reshape,
 * broadcast_in_dim and the two convolution gradients. For those the rule
 * checks op's own result type against the operands and returns it. A loop's
 * type follows from its yield and its action.
 *
 * `mesh` sizes the collectives: all_slice, all_gather, reduce_scatter and
 * all_to_all need one, and with a mesh every collective axis and loop range
 * must name a mesh axis (of the loop's trip count). Defined for ops with
 * one result; return and yield have none. Never aborts: an ill-typed op is
 * a kInvalidArgument saying which rule it breaks.
 */
StatusOr<Type> InferResultType(const Operation& op, const Mesh* mesh);

}  // namespace partir

#endif  // PARTIR_IR_INFER_H_
