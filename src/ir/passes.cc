#include "src/ir/passes.h"

#include <unordered_set>

namespace partir {
namespace {

void CloneBlockInto(const Block& source, Block& dest, ValueMap& map) {
  for (const auto& arg : source.args()) {
    Value* new_arg = dest.AddArg(arg->type(), arg->name());
    map[arg.get()] = new_arg;
  }
  for (const auto& op : source.ops()) {
    std::vector<Value*> operands;
    operands.reserve(op->operands().size());
    for (const Value* operand : op->operands()) {
      auto it = map.find(operand);
      PARTIR_CHECK(it != map.end()) << "clone: operand not mapped";
      operands.push_back(it->second);
    }
    std::vector<Type> result_types;
    for (int i = 0; i < op->num_results(); ++i) {
      result_types.push_back(op->result(i)->type());
    }
    auto new_op = std::make_unique<Operation>(op->kind(), std::move(operands),
                                              std::move(result_types));
    for (const auto& [name, attr] : op->attrs().raw()) {
      new_op->attrs().Set(name, attr);
    }
    for (int i = 0; i < op->num_results(); ++i) {
      new_op->result(i)->set_name(op->result(i)->name());
      map[op->result(i)] = new_op->result(i);
    }
    Operation* appended = dest.Append(std::move(new_op));
    for (int r = 0; r < op->num_regions(); ++r) {
      Region& region = appended->AddRegion();
      CloneBlockInto(op->region(r).block(), region.block(), map);
    }
  }
}

}  // namespace

Func* CloneFunc(const Func& func, Module& module, const std::string& new_name,
                ValueMap* mapping) {
  Func* clone = module.AddFunc(new_name);
  ValueMap local_map;
  ValueMap& map = mapping != nullptr ? *mapping : local_map;
  CloneBlockInto(func.body(), clone->body(), map);
  return clone;
}

std::unique_ptr<Module> CloneModule(const Module& module, ValueMap* mapping) {
  auto clone = std::make_unique<Module>();
  ValueMap local_map;
  ValueMap& map = mapping != nullptr ? *mapping : local_map;
  for (const auto& func : module.funcs()) {
    Func* new_func = clone->AddFunc(func->name());
    CloneBlockInto(func->body(), new_func->body(), map);
  }
  return clone;
}

UseCounts CountUses(const Func& func) {
  UseCounts uses;
  WalkOps(func.body(), [&](const Operation& op) {
    for (const Value* operand : op.operands()) {
      ++uses[operand];
    }
  });
  return uses;
}

namespace {

// Removes unused pure ops from a block (post-order over regions). Terminator
// kinds (return/yield) are always kept.
int64_t DceBlock(Block& block, UseCounts& uses) {
  int64_t removed = 0;
  std::unordered_set<const Operation*> dead;
  do {
    dead.clear();
    // Iterate in reverse so chains die in one sweep.
    for (auto it = block.ops().rbegin(); it != block.ops().rend(); ++it) {
      Operation& op = **it;
      if (op.kind() == OpKind::kReturn || op.kind() == OpKind::kYield) {
        continue;
      }
      bool used = false;
      for (int i = 0; i < op.num_results(); ++i) {
        auto count = uses.find(op.result(i));
        if (count != uses.end() && count->second > 0) used = true;
      }
      if (used) continue;
      for (Value* operand : op.operands()) --uses[operand];
      dead.insert(&op);
    }
    removed += static_cast<int64_t>(dead.size());
    block.EraseIf([&dead](const Operation& op) { return dead.count(&op) > 0; });
  } while (!dead.empty());
  for (auto& op : block.ops()) {
    for (int r = 0; r < op->num_regions(); ++r) {
      removed += DceBlock(op->region(r).block(), uses);
    }
  }
  return removed;
}

}  // namespace

int64_t EliminateDeadCode(Func& func) {
  UseCounts uses = CountUses(func);
  return DceBlock(func.body(), uses);
}

}  // namespace partir
