/**
 * @file
 * Liveness-based arena planning for compiled device programs.
 *
 * The planner walks a flat device-local function once, computes each SSA
 * value's live interval [def, last_use] over the instruction stream, and
 * assigns every value a *slot* in a per-device arena:
 *
 *  - last-use reclamation: a slot returns to its size-class free list the
 *    moment its value's last reader has executed, so later values of the
 *    same element count reuse the buffer instead of allocating;
 *  - in-place update: a unary/binary elementwise op whose operand dies at
 *    that very instruction writes its result into the operand's slot (the
 *    kernels read each element before overwriting it, so aliasing both
 *    operands of a binary op to the result is safe);
 *  - aliasing safety: a dying operand's slot is only released *after* the
 *    instruction's own results have been placed, so a non-in-place result
 *    can never silently alias an operand it still needs to read.
 *
 * Because the SPMD program is identical on every device (only the data
 * differs), one plan serves the whole mesh: the per-device arena footprint
 * in bytes is the plan's arena_bytes, which is what
 * Executable::memory_stats() and the Fig. 7 OOM ablation report.
 *
 * The plan is a pure function of the program: free lists are LIFO vectors
 * keyed by exact element count, ties broken by program order, so repeated
 * planning of the same function yields byte-identical plans.
 */
#ifndef PARTIR_EXEC_MEMORY_PLANNER_H_
#define PARTIR_EXEC_MEMORY_PLANNER_H_

#include <cstdint>
#include <map>
#include <vector>

#include "src/ir/ir.h"

namespace partir {
namespace exec {

/** Where one SSA value lives in the arena, and when. */
struct ValuePlan {
  const Value* value = nullptr;
  int64_t numel = 0;
  /** Defining instruction index; -1 for function arguments. */
  int def = -1;
  /**
   * Largest instruction index reading the value; the number of
   * instructions (one past the last) for values returned by the function
   * (never reclaimed); def for values that are never read.
   */
  int last_use = -1;
  /** Arena slot index. */
  int slot = -1;
  /** True when the value reuses its dying operand's slot in place. */
  bool in_place = false;
};

/** The arena plan of one device-local function. */
struct MemoryPlan {
  /** Args first (argument order), then every op result in program order. */
  std::vector<ValuePlan> values;
  /** Value -> index into `values`. */
  std::map<const Value*, int> index;
  /** Element count of each arena slot. */
  std::vector<int64_t> slot_numels;
  /** Instructions planned over (the function's ops minus the return). */
  int num_instructions = 0;

  /** Arena footprint: sum of slot sizes (4-byte elements). */
  int64_t arena_bytes = 0;
  /** Max bytes simultaneously live at any instruction boundary. */
  int64_t peak_live_bytes = 0;
  /** Sum of every value's bytes: the per-op allocation baseline. */
  int64_t unplanned_bytes = 0;
  /** Values placed into a reclaimed slot (excluding in-place handoffs). */
  int64_t slots_reused = 0;
  /** Instructions writing their result over a dying operand. */
  int64_t in_place_ops = 0;

  int IndexOf(const Value* value) const { return index.at(value); }
};

/**
 * Plans the arena of `func`, a flat device-local function
 * (exec::ValidateFlatProgram) whose terminator is a return: an
 * instruction reads exactly its operands. Deterministic: same function,
 * same plan.
 */
MemoryPlan PlanMemory(const Func& func);

}  // namespace exec
}  // namespace partir

#endif  // PARTIR_EXEC_MEMORY_PLANNER_H_
