/**
 * @file
 * One-shot lowering from a device-local SPMD program to a flat instruction
 * stream: the compiled counterpart of the op-walking SPMD interpreter.
 *
 * A device-local program is flat: local ops and collectives ending in a
 * return, as the Appendix C lowering emits it. PartIR:Core loop regions
 * exist only in the printed loop form of a partition, which nothing
 * lowers or runs; ValidateFlatProgram refuses them, for this compiler and
 * for the reference walker alike.
 *
 * A DeviceProgram is compiled once per partitioned module (by the
 * compile-device-programs pipeline pass, or ad hoc on first compiled Run)
 * and then drives every execution:
 *
 *  - each instruction is a dense record with pre-resolved operand/result
 *    arena slots from the liveness MemoryPlan (memory_planner.h), so the
 *    executor never touches a Value* map on the hot path;
 *  - collective instructions carry their precomputed CollectiveOp (replica
 *    groups, slice schedules) plus a dense rendezvous-site base index;
 *  - zero-operand ops (constants, iota) are materialized at compile time
 *    into a shared tensor the executor copies from;
 *  - elementwise instructions are tagged for fused chains, and every dot,
 *    reduce, transpose and broadcast_in_dim carries a StridedKernel: its
 *    dims and operand strides, recorded in O(rank) with no per-element
 *    tables. Both reproduce the reference interpreter's arithmetic exactly
 *    (bit-identical outputs, enforced by differential tests). Other ops
 *    run the interpreter's kernels as a generic fallback.
 *
 * The same program runs on every device of the mesh; only arena contents
 * and the device's position within each replica group differ.
 */
#ifndef PARTIR_EXEC_DEVICE_PROGRAM_H_
#define PARTIR_EXEC_DEVICE_PROGRAM_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/exec/kernels.h"
#include "src/exec/memory_planner.h"
#include "src/interp/tensor.h"
#include "src/spmd/collectives.h"
#include "src/spmd/lowering.h"
#include "src/support/status.h"

namespace partir {
namespace exec {

/** One executable record of the flat stream. */
struct Instruction {
  OpKind kind;
  /** The source op: attributes for the generic fallback kernel. */
  const Operation* op = nullptr;

  std::vector<int> operand_slots;
  /**
   * operand_dies[j]: this instruction is the operand value's last use and
   * position j is its first occurrence in the operand list (so a consumer
   * may move the buffer out of the arena exactly once). The in-place
   * operand is never flagged — its buffer lives on as the result.
   */
  std::vector<bool> operand_dies;
  std::vector<int> result_slots;

  /** Device-local shape of result 0 (all devices agree under SPMD). */
  std::vector<int64_t> result_dims;
  int64_t result_numel = 0;

  /** Operand index whose slot the result overwrites in place, or -1. */
  int in_place_operand = -1;

  /**
   * Non-null for dot, reduce, transpose and broadcast_in_dim: the strided
   * kernel (kernels.h) that computes the result into its own slot.
   */
  std::shared_ptr<const StridedKernel> strided;

  /**
   * Non-null when this instruction is a fused run of >= 2 consecutive
   * elementwise instructions (kernels.h): one loop over the data, only the
   * final result written back. kind/op/result_* describe the last
   * instruction of the run.
   */
  std::shared_ptr<const FusedChain> chain;

  /** Zero-operand ops: the value, materialized once at compile time. */
  std::shared_ptr<const Tensor> baked;

  /** Non-null for collectives: groups + parsed attrs (plan-owned). */
  const CollectiveOp* collective = nullptr;
  /**
   * Communicating collectives: index of this op's first rendezvous site;
   * replica group g uses site site_base + g. all_slice (device-local) and
   * non-collective instructions keep -1.
   */
  int64_t site_base = -1;
};

/** A compiled device-local program: instructions + arena plan. */
struct DeviceProgram {
  std::vector<Instruction> instructions;
  MemoryPlan plan;
  /** Arena slot of each function argument / returned output. */
  std::vector<int> input_slots;
  std::vector<int> output_slots;
  /** Total rendezvous sites (one per replica group per collective). */
  int64_t num_sites = 0;
  /** Keeps the CollectiveOp records the instructions point into alive. */
  std::shared_ptr<const CollectivePlan> collectives;
  /** Fused-chain instructions / elementwise instructions folded into them
   *  (including the chain heads). */
  int64_t fused_chains = 0;
  int64_t fused_instructions = 0;
};

/**
 * Checks that `func` is a flat device-local program: kInvalidArgument
 * naming the first op that carries a region or is a PartIR:Core loop,
 * slice or yield. The compiler and the reference walker both call it, so
 * either engine refuses such a module with the same error.
 */
Status ValidateFlatProgram(const Func& func);

/**
 * Compiles `spmd`'s main function into a DeviceProgram. Uses spmd.plan when
 * present (the pipeline's precomputed collective plan), else builds one.
 * A function that is not flat (ValidateFlatProgram) is a typed error.
 */
StatusOr<std::shared_ptr<const DeviceProgram>> CompileDeviceProgram(
    const SpmdModule& spmd);

/** Process-wide count of CompileDeviceProgram calls: lets tests assert
 *  that partition-cache hits share programs instead of recompiling. */
int64_t CompiledProgramCount();

/** Memory-planner statistics of a compiled program, per device. */
struct MemoryStats {
  int64_t num_devices = 0;
  /** Device-local SSA values (arguments + op results). */
  int64_t values = 0;
  /** Arena buffers after liveness reuse. */
  int64_t slots = 0;
  /** Per-device arena footprint in bytes (sum of slot sizes). */
  int64_t peak_arena_bytes = 0;
  /** Max bytes simultaneously live on one device. */
  int64_t peak_live_bytes = 0;
  /** Per-device bytes a fresh-tensor-per-op execution would allocate. */
  int64_t unplanned_bytes = 0;
  int64_t slots_reused = 0;
  int64_t in_place_ops = 0;
  /** peak_arena_bytes summed over the mesh. */
  int64_t total_arena_bytes = 0;
  /** Kernel tier: fused elementwise chains and instructions folded away. */
  int64_t fused_chains = 0;
  int64_t fused_instructions = 0;
  /**
   * Fresh tensor-buffer constructions of this executable's most recent
   * Run (RunStats::allocations), or -1 before the first Run. Reported by
   * Executable::memory_stats(); counted per Run (not the racy process-wide
   * Tensor::allocations() delta).
   */
  int64_t last_run_allocations = -1;
};

MemoryStats ComputeMemoryStats(const SpmdModule& spmd,
                               const DeviceProgram& program);

}  // namespace exec
}  // namespace partir

#endif  // PARTIR_EXEC_DEVICE_PROGRAM_H_
