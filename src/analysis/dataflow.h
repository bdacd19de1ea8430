/**
 * @file
 * Reusable dataflow foundations for the static checkers:
 *
 *  - ComputeLiveness: recomputes def/last-use intervals for one flat block
 *    using the exact conventions of the executor's memory planner (args
 *    def=-1, an op reads exactly its operands, terminator operands live
 *    past the end). The memory-plan verifier diffs a compiled plan against
 *    this independent recomputation.
 *
 *  - RunForwardDataflow<State>: a forward abstract-interpretation driver
 *    over the linear SSA blocks of this IR. Region bodies are processed
 *    before their enclosing op's transfer runs. The shape checker and the
 *    replication lint are instances.
 */
#ifndef PARTIR_ANALYSIS_DATAFLOW_H_
#define PARTIR_ANALYSIS_DATAFLOW_H_

#include <functional>
#include <map>
#include <vector>

#include "src/ir/ir.h"

namespace partir {
namespace analysis {

/**
 * Liveness interval of one value of a block, in the memory planner's
 * conventions: `def` is the defining instruction index (-1 for block args),
 * `last_use` the last reading instruction index. Terminator operands get
 * last_use == num_instructions (live past the end); values that are never
 * read keep last_use == def.
 */
struct LiveInterval {
  const Value* value = nullptr;
  int def = -1;
  int last_use = -1;
  /** True when the value is an operand of the block terminator. */
  bool returned = false;
};

/** Liveness of every value (args + op results) owned by one block. */
struct Liveness {
  std::vector<LiveInterval> intervals;
  std::map<const Value*, int> index;
  /** Number of non-terminator operations in the block. */
  int num_instructions = 0;

  const LiveInterval* Find(const Value* value) const {
    auto it = index.find(value);
    return it == index.end() ? nullptr : &intervals[it->second];
  }
};

/**
 * Recomputes liveness for `block`, a flat function body terminated by
 * kReturn. Only values *owned* by the block (its args and the results of
 * its ops) get intervals; an op reads exactly its operands, as in the
 * planner.
 */
Liveness ComputeLiveness(const Block& block);

/**
 * Forward dataflow driver. Visits ops in program order; for an op with
 * regions the bodies are processed first (their args seeded via `boundary`),
 * then `transfer` runs for the op itself. `transfer` receives the op and
 * the states of its operands (never null; operands defined outside the
 * walked blocks are seeded via `boundary` on first sight). It must return
 * one state per op result.
 *
 * Blocks here are linear SSA (no branches), so a single pass reaches the
 * fixpoint.
 */
template <typename State>
std::map<const Value*, State> RunForwardDataflow(
    const Block& block,
    const std::function<State(const Value&)>& boundary,
    const std::function<std::vector<State>(
        const Operation&, const std::vector<const State*>&)>& transfer) {
  std::map<const Value*, State> states;
  std::function<void(const Block&)> walk = [&](const Block& b) {
    for (const auto& arg : b.args()) {
      states.emplace(arg.get(), boundary(*arg));
    }
    for (const auto& op : b.ops()) {
      for (int r = 0; r < op->num_regions(); ++r) {
        walk(op->region(r).block());
      }
      std::vector<const State*> operand_states;
      operand_states.reserve(op->operands().size());
      for (const Value* operand : op->operands()) {
        auto it = states.find(operand);
        if (it == states.end()) {
          // Free value defined outside the walked region tree.
          it = states.emplace(operand, boundary(*operand)).first;
        }
        operand_states.push_back(&it->second);
      }
      std::vector<State> result_states = transfer(*op, operand_states);
      for (int r = 0; r < op->num_results() &&
                      r < static_cast<int>(result_states.size());
           ++r) {
        states[op->result(r)] = result_states[r];
      }
    }
  };
  walk(block);
  return states;
}

}  // namespace analysis
}  // namespace partir

#endif  // PARTIR_ANALYSIS_DATAFLOW_H_
