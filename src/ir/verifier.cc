#include "src/ir/verifier.h"

#include <unordered_set>

#include "src/ir/infer.h"
#include "src/support/str_util.h"

namespace partir {
namespace {

using ErrorFn = std::function<void(const std::string&, const std::string&)>;

class VerifierState {
 public:
  VerifierState(const Mesh* mesh, ErrorFn error)
      : mesh_(mesh), error_(std::move(error)) {}

  void VerifyFunc(const Func& func) {
    if (func.body().num_ops() == 0 ||
        func.body().terminator()->kind() != OpKind::kReturn) {
      error_(StrCat("func @", func.name()), "must end in return");
      return;
    }
    VerifyBlock(func.body(), /*depth=*/0, "");
  }

 private:
  /** Verifies `block` and the regions nested in it (`depth` deep in loop
   *  regions; `prefix` locates the enclosing op). A block's arguments and
   *  results join the one visible set as the walk reaches them and leave
   *  it when the walk leaves the block, so a region sees every enclosing
   *  definition but none of its own values outlive it. */
  void VerifyBlock(const Block& block, int depth, const std::string& prefix) {
    std::vector<const Value*> defined;  // what this block added to visible_
    auto define = [&](const Value* value) {
      if (visible_.insert(value).second) defined.push_back(value);
    };
    for (const auto& arg : block.args()) define(arg.get());
    for (int i = 0; i < block.num_ops(); ++i) {
      const Operation& op = *block.ops()[i];
      auto error = [&](const std::string& message) {
        error_(StrCat(prefix, OpLocation(i, op)), message);
      };
      for (const Value* operand : op.operands()) {
        if (!visible_.count(operand)) {
          error("uses a value not dominating it");
        }
      }
      VerifyPlacement(op, depth, i == block.num_ops() - 1, error);
      VerifyType(op, error);
      for (int r = 0; r < op.num_regions(); ++r) {
        VerifyBlock(op.region(r).block(), depth + 1,
                    StrCat(prefix, OpLocation(i, op), ", "));
      }
      for (int r = 0; r < op.num_results(); ++r) define(op.result(r));
    }
    for (const Value* value : defined) visible_.erase(value);
  }

  template <typename Error>
  static void VerifyPlacement(const Operation& op, int depth,
                              bool is_terminator, const Error& error) {
    switch (op.kind()) {
      case OpKind::kReturn:
        if (depth > 0) {
          error("return inside a loop region");
        } else if (!is_terminator) {
          error("return before the end of the function body");
        }
        break;
      case OpKind::kYield:
        if (depth == 0) {
          error("yield outside a loop region");
        } else if (!is_terminator) {
          error("yield before the end of its region");
        }
        break;
      case OpKind::kPSlice:
        if (depth == 0) error("slice outside a loop region");
        break;
      default:
        if (IsCollective(op.kind()) && depth > 0) {
          error("collective inside a loop region");
        }
        break;
    }
    if (op.num_regions() > 0 && op.kind() != OpKind::kLoop) {
      error("only loop ops may carry regions");
    }
  }

  template <typename Error>
  void VerifyType(const Operation& op, const Error& error) const {
    if (op.kind() == OpKind::kReturn || op.kind() == OpKind::kYield) {
      if (op.num_results() != 0) error("a terminator has no results");
      return;
    }
    StatusOr<Type> type = InferResultType(op, mesh_);
    if (!type.ok()) {
      error(type.status().message());
    } else if (type.value() != op.result()->type()) {
      error(StrCat("declares ", op.result()->type().ToString(),
                   " but its typing rule gives ", type.value().ToString()));
    }
  }

  const Mesh* mesh_;
  ErrorFn error_;
  std::unordered_set<const Value*> visible_;  // definitions in scope
};

/** An error callback appending "location: message" to `diags`. */
ErrorFn Collect(std::vector<std::string>& diags) {
  return [&diags](const std::string& location, const std::string& message) {
    diags.push_back(StrCat(location, ": ", message));
  };
}

}  // namespace

std::string OpLocation(int index, const Operation& op) {
  return StrCat("op ", index, " (", OpKindName(op.kind()), ")");
}

void VerifyEach(const Module& module, const Mesh* mesh, const ErrorFn& error) {
  for (const auto& func : module.funcs()) {
    VerifierState(mesh, error).VerifyFunc(*func);
  }
}

std::vector<std::string> Verify(const Module& module, const Mesh* mesh) {
  std::vector<std::string> diags;
  VerifyEach(module, mesh, Collect(diags));
  return diags;
}

std::vector<std::string> Verify(const Func& func, const Mesh* mesh) {
  std::vector<std::string> diags;
  VerifierState(mesh, Collect(diags)).VerifyFunc(func);
  return diags;
}

void VerifyOrDie(const Module& module, const Mesh* mesh) {
  std::vector<std::string> diags = Verify(module, mesh);
  if (!diags.empty()) {
    PARTIR_CHECK(false) << "module verification failed:\n"
                        << StrJoin(diags, "\n");
  }
}

}  // namespace partir
