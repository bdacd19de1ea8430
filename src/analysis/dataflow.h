/**
 * @file
 * ComputeLiveness: recomputes def/last-use intervals for one flat block
 * using the exact conventions of the executor's memory planner (args
 * def=-1, an op reads exactly its operands, terminator operands live past
 * the end). The memory-plan verifier diffs a compiled plan against this
 * independent recomputation.
 */
#ifndef PARTIR_ANALYSIS_DATAFLOW_H_
#define PARTIR_ANALYSIS_DATAFLOW_H_

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

}  // namespace analysis
}  // namespace partir

#endif  // PARTIR_ANALYSIS_DATAFLOW_H_
