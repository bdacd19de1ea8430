/**
 * @file
 * Generic IR utilities used by the partitioning pipeline: cloning, dead-code
 * elimination, and use counting.
 */
#ifndef PARTIR_IR_PASSES_H_
#define PARTIR_IR_PASSES_H_

#include <map>
#include <memory>
#include <unordered_map>

#include "src/ir/ir.h"

namespace partir {

/** Maps values of a source function to values of its clone. */
using ValueMap = std::map<const Value*, Value*>;

/** Number of operand uses of each value (values never used are absent). */
using UseCounts = std::unordered_map<const Value*, int64_t>;

/**
 * Clones `func` into a new function appended to `module`, returning the
 * clone. If `mapping` is non-null it is filled with source→clone values.
 */
Func* CloneFunc(const Func& func, Module& module, const std::string& new_name,
                ValueMap* mapping = nullptr);

/** Clones a whole module. */
std::unique_ptr<Module> CloneModule(const Module& module,
                                    ValueMap* mapping = nullptr);

/**
 * Removes operations whose results are all unused. All ops in this IR are
 * pure, so this is safe. Returns the number of removed ops.
 */
int64_t EliminateDeadCode(Func& func);

/** Counts uses of every value in a function (including region bodies). */
UseCounts CountUses(const Func& func);

}  // namespace partir

#endif  // PARTIR_IR_PASSES_H_
