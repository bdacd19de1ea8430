#include "src/ir/ir.h"

#include <algorithm>

namespace partir {

Region::Region() : block_(std::make_unique<Block>()) {}
Region::~Region() = default;

void Value::set_type(Type type) {
  type_ = std::move(type);
  if (owner_block_ != nullptr) {
    owner_block_->BumpVersion();
  } else if (def_ != nullptr && def_->parent() != nullptr) {
    def_->parent()->BumpVersion();
  }
}

void Value::set_name(std::string name) {
  name_ = std::move(name);
  if (owner_block_ != nullptr) {
    owner_block_->BumpVersion();
  } else if (def_ != nullptr && def_->parent() != nullptr) {
    def_->parent()->BumpVersion();
  }
}

Operation::Operation(OpKind kind, std::vector<Value*> operands,
                     std::vector<Type> result_types)
    : kind_(kind), operands_(std::move(operands)) {
  results_.reserve(result_types.size());
  for (size_t i = 0; i < result_types.size(); ++i) {
    auto value = std::make_unique<Value>(std::move(result_types[i]), "");
    value->def_ = this;
    value->result_index_ = static_cast<int>(i);
    results_.push_back(std::move(value));
  }
}

Operation::~Operation() = default;

void Operation::set_operand(int i, Value* value) {
  operands_.at(i) = value;
  if (parent_ != nullptr) parent_->BumpVersion();
}

Region& Operation::AddRegion() {
  regions_.push_back(std::make_unique<Region>());
  // Wire the region's block back to this op so mutations inside it
  // propagate to every enclosing block's version.
  regions_.back()->block().parent_op_ = this;
  if (parent_ != nullptr) parent_->BumpVersion();
  return *regions_.back();
}

Value* Block::AddArg(Type type, std::string name) {
  auto value = std::make_unique<Value>(std::move(type), std::move(name));
  value->owner_block_ = this;
  value->arg_index_ = static_cast<int>(args_.size());
  args_.push_back(std::move(value));
  BumpVersion();
  return args_.back().get();
}

Operation* Block::Append(std::unique_ptr<Operation> op) {
  op->parent_ = this;
  ops_.push_back(std::move(op));
  BumpVersion();
  return ops_.back().get();
}

void Block::BumpVersion() {
  ++version_;
  for (Operation* op = parent_op_; op != nullptr;) {
    Block* enclosing = op->parent();
    if (enclosing == nullptr) break;
    ++enclosing->version_;
    op = enclosing->parent_op_;
  }
}

void Block::EraseIf(const std::function<bool(const Operation&)>& predicate) {
  size_t before = ops_.size();
  ops_.erase(std::remove_if(ops_.begin(), ops_.end(),
                            [&](const std::unique_ptr<Operation>& op) {
                              return predicate(*op);
                            }),
             ops_.end());
  if (ops_.size() != before) BumpVersion();
}

std::vector<std::unique_ptr<Operation>> Block::TakeOps() {
  std::vector<std::unique_ptr<Operation>> taken = std::move(ops_);
  ops_.clear();
  BumpVersion();
  return taken;
}

void WalkOps(const Block& block,
             const std::function<void(const Operation&)>& visit) {
  for (const auto& op : block.ops()) {
    const Operation& const_op = *op;
    visit(const_op);
    for (int r = 0; r < const_op.num_regions(); ++r) {
      WalkOps(const_op.region(r).block(), visit);
    }
  }
}

void WalkOps(Block& block, const std::function<void(Operation&)>& visit) {
  for (const auto& op : block.ops()) {
    visit(*op);
    for (int r = 0; r < op->num_regions(); ++r) {
      WalkOps(op->region(r).block(), visit);
    }
  }
}

int64_t CountOps(const Func& func) {
  int64_t count = 0;
  WalkOps(func.body(), [&](const Operation&) { ++count; });
  return count;
}

}  // namespace partir
