/**
 * @file
 * Core SSA IR structures: Value, Operation (with attributes and nested
 * regions), Block, Region, Func and Module. This is the array-IR substrate
 * the PartIR stack rewrites; it stands in for StableHLO + MLIR.
 *
 * Ownership: a Module owns its Funcs; a Func owns its body Block; a Block
 * owns its argument Values and its Operations; an Operation owns its result
 * Values and nested Regions. Operand references are non-owning Value*.
 */
#ifndef PARTIR_IR_IR_H_
#define PARTIR_IR_IR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "src/ir/attr.h"
#include "src/ir/op_kind.h"
#include "src/ir/type.h"
#include "src/support/check.h"

namespace partir {

class Operation;
class Block;
class Region;
class Func;

/** An SSA value: either an operation result or a block argument. */
class Value {
 public:
  Value(Type type, std::string name) : type_(std::move(type)),
                                       name_(std::move(name)) {}

  const Type& type() const { return type_; }
  /** Replaces the type (bumps the owning block's mutation version). */
  void set_type(Type type);

  /** Debug/printer name; block arguments keep user-facing input names. */
  const std::string& name() const { return name_; }
  /** Renames the value (bumps the owning block's mutation version). */
  void set_name(std::string name);

  /** Defining operation, or nullptr for block arguments. */
  Operation* def() const { return def_; }
  int result_index() const { return result_index_; }

  /** Owning block if this is a block argument, else nullptr. */
  Block* owner_block() const { return owner_block_; }
  int arg_index() const { return arg_index_; }

  bool IsBlockArg() const { return owner_block_ != nullptr; }

  /** Convenience: tensor type of this value (checks it is a tensor). */
  const TensorType& tensor_type() const { return type_.tensor(); }

 private:
  friend class Operation;
  friend class Block;

  Type type_;
  std::string name_;
  Operation* def_ = nullptr;
  int result_index_ = -1;
  Block* owner_block_ = nullptr;
  int arg_index_ = -1;
};

/** A region: a single block nested inside an operation (loop bodies). */
class Region {
 public:
  Region();
  ~Region();

  Block& block() { return *block_; }
  const Block& block() const { return *block_; }

 private:
  std::unique_ptr<Block> block_;
};

/** An operation: kind, operands, results, attributes, nested regions. */
class Operation {
 public:
  Operation(OpKind kind, std::vector<Value*> operands,
            std::vector<Type> result_types);
  ~Operation();

  OpKind kind() const { return kind_; }

  const std::vector<Value*>& operands() const { return operands_; }
  Value* operand(int i) const { return operands_.at(i); }
  int num_operands() const { return static_cast<int>(operands_.size()); }
  /** Rewires an operand (bumps the parent block's mutation version). */
  void set_operand(int i, Value* value);

  Value* result(int i = 0) const { return results_.at(i).get(); }
  int num_results() const { return static_cast<int>(results_.size()); }

  AttrMap& attrs() { return attrs_; }
  const AttrMap& attrs() const { return attrs_; }

  /** Adds an empty nested region and returns it. */
  Region& AddRegion();
  Region& region(int i = 0) { return *regions_.at(i); }
  const Region& region(int i = 0) const { return *regions_.at(i); }
  int num_regions() const { return static_cast<int>(regions_.size()); }

  Block* parent() const { return parent_; }

 private:
  friend class Block;

  OpKind kind_;
  std::vector<Value*> operands_;
  std::vector<std::unique_ptr<Value>> results_;
  AttrMap attrs_;
  std::vector<std::unique_ptr<Region>> regions_;
  Block* parent_ = nullptr;
};

/** A basic block: arguments plus an ordered list of operations. */
class Block {
 public:
  Block() = default;

  /** Appends a block argument of the given type and returns it. */
  Value* AddArg(Type type, std::string name);

  /** Appends an operation (takes ownership) and returns it. */
  Operation* Append(std::unique_ptr<Operation> op);

  /**
   * Monotonic mutation counter of this block *and every block nested under
   * an enclosing operation below it*: structural mutations (AddArg, Append,
   * EraseIf, operand rewires, value type/name changes) bump this block and
   * propagate to every enclosing block, so the version of a function's body
   * covers its whole region tree. Cached derived state (the structural
   * trace fingerprint the partition cache keys on) is keyed on it.
   */
  uint64_t version() const { return version_; }
  /** Records a mutation: bumps this block and every enclosing block. */
  void BumpVersion();

  const std::vector<std::unique_ptr<Value>>& args() const { return args_; }
  Value* arg(int i) const { return args_.at(i).get(); }
  int num_args() const { return static_cast<int>(args_.size()); }

  const std::vector<std::unique_ptr<Operation>>& ops() const { return ops_; }
  int num_ops() const { return static_cast<int>(ops_.size()); }

  /** Last operation (the terminator once the block is complete). */
  Operation* terminator() const {
    PARTIR_CHECK(!ops_.empty()) << "block has no terminator";
    return ops_.back().get();
  }

  /** Removes operations for which predicate returns true (must be unused). */
  void EraseIf(const std::function<bool(const Operation&)>& predicate);

  /**
   * Moves every operation out of the block, leaving it empty, for in-place
   * rewrites that re-Append the ops they keep. Taken ops stay alive (and
   * their results valid operands) for as long as the caller owns them.
   */
  std::vector<std::unique_ptr<Operation>> TakeOps();

 private:
  friend class Operation;

  std::vector<std::unique_ptr<Value>> args_;
  std::vector<std::unique_ptr<Operation>> ops_;
  uint64_t version_ = 0;
  Operation* parent_op_ = nullptr;  // the op whose region holds this block
};

/** A function: a named body block whose args are the function inputs. */
class Func {
 public:
  explicit Func(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  Block& body() { return body_; }
  const Block& body() const { return body_; }

  /** Function result values: operands of the terminating return op. */
  std::vector<Value*> results() const {
    return body_.terminator()->operands();
  }

  /** Finds the argument with the given name, or nullptr. */
  Value* FindArg(const std::string& name) const {
    for (const auto& arg : body_.args()) {
      if (arg->name() == name) return arg.get();
    }
    return nullptr;
  }

  /**
   * Structural-fingerprint cache (fingerprint.cc): the cached digest when
   * one was stored for the *current* body version, else nullopt. Mutations
   * anywhere in the region tree bump the body version (Block::version), so
   * a stale fingerprint can never be returned. Thread-safe.
   */
  std::optional<uint64_t> cached_fingerprint() const {
    std::lock_guard<std::mutex> lock(fingerprint_mu_);
    if (!fingerprint_valid_ || fingerprint_version_ != body_.version()) {
      return std::nullopt;
    }
    return fingerprint_;
  }
  /** Stores the fingerprint computed at `version` (captured by the caller
   *  before hashing, so a mutation racing the walk is never cached). */
  void cache_fingerprint(uint64_t version, uint64_t fingerprint) const {
    std::lock_guard<std::mutex> lock(fingerprint_mu_);
    fingerprint_valid_ = true;
    fingerprint_version_ = version;
    fingerprint_ = fingerprint;
  }

 private:
  std::string name_;
  Block body_;
  mutable std::mutex fingerprint_mu_;
  mutable bool fingerprint_valid_ = false;
  mutable uint64_t fingerprint_version_ = 0;
  mutable uint64_t fingerprint_ = 0;
};

/** A module: a list of functions (usually one, "main"). */
class Module {
 public:
  Func* AddFunc(std::string name) {
    funcs_.push_back(std::make_unique<Func>(std::move(name)));
    return funcs_.back().get();
  }

  const std::vector<std::unique_ptr<Func>>& funcs() const { return funcs_; }

  Func* GetFunc(const std::string& name) const {
    for (const auto& func : funcs_) {
      if (func->name() == name) return func.get();
    }
    return nullptr;
  }

  /** The main (first) function of the module. */
  Func* main() const {
    PARTIR_CHECK(!funcs_.empty()) << "module has no functions";
    return funcs_.front().get();
  }

 private:
  std::vector<std::unique_ptr<Func>> funcs_;
};

/** Walks every operation in a block, recursing into nested regions. */
void WalkOps(const Block& block,
             const std::function<void(const Operation&)>& visit);
void WalkOps(Block& block, const std::function<void(Operation&)>& visit);

/** Counts the total number of operations in a function (incl. regions). */
int64_t CountOps(const Func& func);

}  // namespace partir

#endif  // PARTIR_IR_IR_H_
