/**
 * @file
 * Operation kinds across all dialects of the compiler stack:
 *   - the array-IR substrate (StableHLO stand-in, Section 2.4),
 *   - PartIR:Core loop/slice ops (Section 5),
 *   - PartIR:HLO mesh-axis collectives (Section 6).
 */
#ifndef PARTIR_IR_OP_KIND_H_
#define PARTIR_IR_OP_KIND_H_

#include "src/support/check.h"

namespace partir {

enum class OpKind {
  // ---- Array IR (StableHLO stand-in) ----
  kConstant,        // attrs: "splat" (double) or "data" (vector<float>)
  kIota,            // attr: "dim"
  // Unary elementwise.
  kNeg,
  kExp,
  kLog,
  kTanh,
  kRsqrt,
  kSqrt,
  kLogistic,
  // Binary elementwise.
  kAdd,
  kSub,
  kMul,
  kDiv,
  kMax,
  kMin,
  kPow,
  // Structured ops.
  kDot,             // attrs: lhs_batch, rhs_batch, lhs_contract, rhs_contract
  kTranspose,       // attr: perm
  kReshape,         // result type carries the new shape
  kReduce,          // attrs: dims, reduction ("sum"|"max")
  kBroadcastInDim,  // attr: broadcast_dims; result type carries target shape
  kConcatenate,     // attr: dim; variadic operands
  kStaticSlice,     // attrs: starts, limits
  kGather,          // take along dim 0: (table, indices) -> indexed rows
  kScatterAdd,      // (init, indices, updates) -> init with rows accumulated
  kConvolution,     // NHWC x HWIO -> NHWC; attrs: strides ("SAME" padding)
  kConvInputGrad,   // backward-of-convolution w.r.t. input
  kConvFilterGrad,  // backward-of-convolution w.r.t. filter
  kTag,             // identity; attr: "name" (Section 8, model annotations)
  kReturn,          // function terminator

  // ---- PartIR:Core (Section 5) ----
  kLoop,   // attrs: axis, action ("tile"|"sum"|"any"), tile_dim; one region
  kPSlice, // operands: (tensor, range); attr: dim
  kYield,  // loop-body terminator

  // ---- PartIR:HLO collectives (Section 6, Listing 8) ----
  kAllSlice,       // attr: axes_per_dim
  kAllGather,      // attr: axes_per_dim
  kAllReduce,      // attrs: axes, reduction
  kReduceScatter,  // attrs: axes_per_dim, reduction
  kAllToAll,       // attrs: slice_dim, concat_dim, axes
};

/** Returns the printer mnemonic of an op kind. */
inline const char* OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kConstant: return "constant";
    case OpKind::kIota: return "iota";
    case OpKind::kNeg: return "neg";
    case OpKind::kExp: return "exp";
    case OpKind::kLog: return "log";
    case OpKind::kTanh: return "tanh";
    case OpKind::kRsqrt: return "rsqrt";
    case OpKind::kSqrt: return "sqrt";
    case OpKind::kLogistic: return "logistic";
    case OpKind::kAdd: return "add";
    case OpKind::kSub: return "sub";
    case OpKind::kMul: return "mul";
    case OpKind::kDiv: return "div";
    case OpKind::kMax: return "max";
    case OpKind::kMin: return "min";
    case OpKind::kPow: return "pow";
    case OpKind::kDot: return "dot";
    case OpKind::kTranspose: return "transpose";
    case OpKind::kReshape: return "reshape";
    case OpKind::kReduce: return "reduce";
    case OpKind::kBroadcastInDim: return "broadcast_in_dim";
    case OpKind::kConcatenate: return "concatenate";
    case OpKind::kStaticSlice: return "static_slice";
    case OpKind::kGather: return "gather";
    case OpKind::kScatterAdd: return "scatter_add";
    case OpKind::kConvolution: return "convolution";
    case OpKind::kConvInputGrad: return "conv_input_grad";
    case OpKind::kConvFilterGrad: return "conv_filter_grad";
    case OpKind::kTag: return "tag";
    case OpKind::kReturn: return "return";
    case OpKind::kLoop: return "loop";
    case OpKind::kPSlice: return "slice";
    case OpKind::kYield: return "yield";
    case OpKind::kAllSlice: return "all_slice";
    case OpKind::kAllGather: return "all_gather";
    case OpKind::kAllReduce: return "all_reduce";
    case OpKind::kReduceScatter: return "reduce_scatter";
    case OpKind::kAllToAll: return "all_to_all";
  }
  PARTIR_UNREACHABLE("bad op kind");
}

/** True for elementwise ops with exactly one operand. */
inline bool IsUnaryElementwise(OpKind kind) {
  switch (kind) {
    case OpKind::kNeg:
    case OpKind::kExp:
    case OpKind::kLog:
    case OpKind::kTanh:
    case OpKind::kRsqrt:
    case OpKind::kSqrt:
    case OpKind::kLogistic:
      return true;
    default:
      return false;
  }
}

/** True for elementwise ops with exactly two same-shaped operands. */
inline bool IsBinaryElementwise(OpKind kind) {
  switch (kind) {
    case OpKind::kAdd:
    case OpKind::kSub:
    case OpKind::kMul:
    case OpKind::kDiv:
    case OpKind::kMax:
    case OpKind::kMin:
    case OpKind::kPow:
      return true;
    default:
      return false;
  }
}

/** True for the PartIR:Core loop ops: loop, slice and yield. */
inline bool IsPartirCoreOp(OpKind kind) {
  return kind == OpKind::kLoop || kind == OpKind::kPSlice ||
         kind == OpKind::kYield;
}

/** True for the PartIR:HLO collective communication ops. */
inline bool IsCollective(OpKind kind) {
  switch (kind) {
    case OpKind::kAllSlice:
    case OpKind::kAllGather:
    case OpKind::kAllReduce:
    case OpKind::kReduceScatter:
    case OpKind::kAllToAll:
      return true;
    default:
      return false;
  }
}

}  // namespace partir

#endif  // PARTIR_IR_OP_KIND_H_
