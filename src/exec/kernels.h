/**
 * @file
 * The kernel tier below the compiled executor's dispatch: hand-written
 * loops that cut memory traffic without changing a single bit of output
 * relative to the reference interpreter.
 *
 *  - Fused elementwise chains: a run of consecutive elementwise
 *    instructions whose intermediates die immediately executes one block
 *    of kChainBlock elements at a time: every step runs the interpreter's
 *    span kernel over the block, carrying the intermediate in a local
 *    buffer that stays in L1. Each element sees exactly the unfused
 *    operations in the unfused order, so outputs are bit-identical;
 *    intermediates never touch the arena at all (the memory planner's slots
 *    for them simply stay unwritten).
 *
 *  - Strided kernels: every dot, reduce, transpose and broadcast_in_dim
 *    runs as a loop nest over its row-major operand buffers, described by
 *    a StridedKernel recorded at compile time in O(rank). A dot is a
 *    batched [B, M, K] x [B, K, N] product summing each output in double
 *    over K in the walker's order; a reduce folds each output over its
 *    reduced dims in input row-major order; transpose and broadcast are
 *    strided copies. Innermost rows are unit-stride wherever the layout
 *    allows.
 *
 * Convolutions, gather, scatter_add, static_slice and concatenate keep the
 * generic fallback through the interpreter's own kernels.
 */
#ifndef PARTIR_EXEC_KERNELS_H_
#define PARTIR_EXEC_KERNELS_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/interp/tensor.h"
#include "src/ir/ir.h"

namespace partir {
namespace exec {

/** One step of a fused elementwise chain. */
struct ChainStep {
  OpKind kind;
  /**
   * Binary steps: arena slot of the non-carried operand. -1 for unary
   * steps and for binary steps whose operands are both the carried value
   * (e.g. mul(x, x)).
   */
  int external_slot = -1;
  /** Binary steps with an external operand: the carried value is the lhs. */
  bool carried_lhs = true;
};

/**
 * A run of >= 2 consecutive elementwise instructions fused into one loop.
 * steps[0] consumes the chain input; every intermediate dies at the next
 * step, so only the final result is written back.
 */
struct FusedChain {
  /** Arena slot of the chain's carried input. */
  int input_slot = -1;
  std::vector<ChainStep> steps;
};

/** Elements per block of a fused chain. */
constexpr int64_t kChainBlock = 256;

/**
 * Executes `chain` over `numel` elements, reading its input and externals
 * from `arena` by slot. `out` may be the input's or any external's buffer:
 * a block is fully read before it is written, and no block is revisited.
 */
void RunFusedChain(const FusedChain& chain, const std::vector<Tensor>& arena,
                   float* out, int64_t numel);

/**
 * A dot, reduce, transpose or broadcast_in_dim as a strided loop nest over
 * its row-major operand buffers. Strides are in elements.
 */
struct StridedKernel {
  enum class Kind { kDot, kCopy, kReduceSum, kReduceMax };
  Kind kind = Kind::kCopy;
  /**
   * kDot: out[b, m, n] = sum over k of lhs[b, m, k] * rhs[b, k, n], the
   * output row-major over [B, M, N]. `batch` and `contract` step lhs (a)
   * and rhs (b); `lhs_free` steps lhs and `rhs_free` steps rhs (both as
   * a). K runs over the contracting dims row-major in lhs_contract order.
   */
  StridedLoops batch, lhs_free, rhs_free, contract;
  /**
   * kCopy: walks the output row-major; a = the input's stride along each
   * output dim (0 along dims broadcast_in_dim adds).
   * kReduceSum / kReduceMax: walks the input row-major; a = the input's
   * stride, b = the output's (0 along reduced dims).
   */
  StridedLoops loops;
};

/**
 * The strided kernel of a dot, reduce, transpose or broadcast_in_dim op,
 * built from its operand shapes and attributes; null for any other op.
 */
std::shared_ptr<const StridedKernel> MakeStridedKernel(const Operation& op);

/**
 * Runs `kernel` into `out` (`out_numel` elements). `rhs` is read by kDot
 * only. `out` must not alias an operand: the kernels read operands while
 * writing the result.
 */
void RunStridedKernel(const StridedKernel& kernel, const float* lhs,
                      const float* rhs, float* out, int64_t out_numel);

}  // namespace exec
}  // namespace partir

#endif  // PARTIR_EXEC_KERNELS_H_
