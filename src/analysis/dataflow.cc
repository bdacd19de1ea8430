#include "src/analysis/dataflow.h"

namespace partir {
namespace analysis {

Liveness ComputeLiveness(const Block& block) {
  Liveness live;
  if (block.num_ops() == 0) return live;
  live.num_instructions = block.num_ops() - 1;  // terminator excluded

  auto add = [&](const Value* value, int def) {
    LiveInterval interval;
    interval.value = value;
    interval.def = def;
    interval.last_use = def;  // never-read values keep last_use == def
    live.index[value] = static_cast<int>(live.intervals.size());
    live.intervals.push_back(interval);
  };
  for (const auto& arg : block.args()) add(arg.get(), -1);
  for (int i = 0; i < live.num_instructions; ++i) {
    const Operation& op = *block.ops()[i];
    for (int r = 0; r < op.num_results(); ++r) add(op.result(r), i);
  }

  for (int i = 0; i < live.num_instructions; ++i) {
    for (const Value* operand : block.ops()[i]->operands()) {
      auto it = live.index.find(operand);
      if (it == live.index.end()) continue;  // not owned by this block
      LiveInterval& interval = live.intervals[it->second];
      if (i > interval.last_use) interval.last_use = i;
    }
  }

  const Operation* terminator = block.ops().back().get();
  for (const Value* operand : terminator->operands()) {
    auto it = live.index.find(operand);
    if (it == live.index.end()) continue;
    LiveInterval& interval = live.intervals[it->second];
    interval.last_use = live.num_instructions;
    interval.returned = true;
  }
  return live;
}

}  // namespace analysis
}  // namespace partir
