#include "src/ir/verifier.h"

#include <unordered_set>

#include "src/support/str_util.h"

namespace partir {
namespace {

class VerifierState {
 public:
  explicit VerifierState(std::vector<std::string>* diags) : diags_(diags) {}

  void Error(const std::string& message) { diags_->push_back(message); }

  /** Verifies `block` and the regions nested in it. A block's arguments
   *  and results join the one visible set as the walk reaches them and
   *  leave it when the walk leaves the block, so a region sees every
   *  enclosing definition but none of its own values outlive it. */
  void VerifyBlock(const Block& block) {
    std::vector<const Value*> defined;  // what this block added to visible_
    auto define = [&](const Value* value) {
      if (visible_.insert(value).second) defined.push_back(value);
    };
    for (const auto& arg : block.args()) define(arg.get());
    for (const auto& op : block.ops()) {
      for (const Value* operand : op->operands()) {
        if (!visible_.count(operand)) {
          Error(StrCat("op '", OpKindName(op->kind()),
                       "' uses value not dominating it"));
        }
      }
      VerifyOp(*op);
      for (int r = 0; r < op->num_regions(); ++r) {
        VerifyBlock(op->region(r).block());
      }
      for (int i = 0; i < op->num_results(); ++i) define(op->result(i));
    }
    for (const Value* value : defined) visible_.erase(value);
  }

  void VerifyOp(const Operation& op) {
    OpKind kind = op.kind();
    auto expect_operands = [&](int n) {
      if (op.num_operands() != n) {
        Error(StrCat("op '", OpKindName(kind), "' expects ", n,
                     " operands, got ", op.num_operands()));
        return false;
      }
      return true;
    };
    if (IsUnaryElementwise(kind)) {
      if (expect_operands(1) &&
          op.operand(0)->type() != op.result()->type()) {
        Error(StrCat("unary elementwise type mismatch on ",
                     OpKindName(kind)));
      }
      return;
    }
    if (IsBinaryElementwise(kind)) {
      if (expect_operands(2) &&
          (op.operand(0)->type() != op.operand(1)->type() ||
           op.operand(0)->type() != op.result()->type())) {
        Error(StrCat("binary elementwise type mismatch on ",
                     OpKindName(kind)));
      }
      return;
    }
    switch (kind) {
      case OpKind::kConstant:
        if (!op.attrs().Has("splat") && !op.attrs().Has("data")) {
          Error("constant without splat or data attribute");
        }
        break;
      case OpKind::kDot: {
        if (!expect_operands(2)) break;
        const auto& lc = op.attrs().Get<std::vector<int64_t>>("lhs_contract");
        const auto& rc = op.attrs().Get<std::vector<int64_t>>("rhs_contract");
        const TensorType& lt = op.operand(0)->tensor_type();
        const TensorType& rt = op.operand(1)->tensor_type();
        for (size_t i = 0; i < lc.size(); ++i) {
          if (lt.dim(lc[i]) != rt.dim(rc[i])) {
            Error("dot contracting dims disagree");
          }
        }
        break;
      }
      case OpKind::kLoop: {
        if (op.num_regions() != 1) {
          Error("loop must have exactly one region");
          break;
        }
        const Block& body = op.region(0).block();
        if (body.num_args() != 1 || !body.arg(0)->type().IsRange()) {
          Error("loop body must take a single range argument");
          break;
        }
        if (body.num_ops() == 0 ||
            body.terminator()->kind() != OpKind::kYield) {
          Error("loop body must end in yield");
          break;
        }
        const Operation* yield = body.terminator();
        if (yield->num_operands() != op.num_results()) {
          Error("loop yield arity mismatch");
          break;
        }
        // Type relation: tile multiplies the tiled dim by the range size;
        // sum/any keep the type.
        const std::string& action = op.attrs().Get<std::string>("action");
        const TensorType& yt = yield->operand(0)->tensor_type();
        const TensorType& rt = op.result()->tensor_type();
        int64_t range = body.arg(0)->type().range().size();
        if (action == "tile") {
          int64_t dim = op.attrs().Get<int64_t>("tile_dim");
          std::vector<int64_t> expect = yt.dims();
          if (dim >= static_cast<int64_t>(expect.size())) {
            Error("loop tile_dim out of range");
            break;
          }
          expect[dim] *= range;
          if (expect != rt.dims()) {
            Error(StrCat("loop tile type mismatch: yielded ", yt.ToString(),
                         " result ", rt.ToString()));
          }
        } else if (action == "sum" || action == "any") {
          if (yt != rt) Error("loop sum/any type mismatch");
        } else {
          Error(StrCat("unknown loop action '", action, "'"));
        }
        break;
      }
      case OpKind::kPSlice: {
        if (!expect_operands(2)) break;
        if (!op.operand(1)->type().IsRange()) {
          Error("slice second operand must be a range");
          break;
        }
        int64_t dim = op.attrs().Get<int64_t>("dim");
        const TensorType& in = op.operand(0)->tensor_type();
        const TensorType& out = op.result()->tensor_type();
        int64_t range = op.operand(1)->type().range().size();
        if (in.dim(dim) != out.dim(dim) * range) {
          Error("slice result dim inconsistent with range size");
        }
        break;
      }
      case OpKind::kAllReduce:
        if (expect_operands(1) &&
            op.operand(0)->type() != op.result()->type()) {
          Error("all_reduce must preserve type");
        }
        break;
      case OpKind::kAllSlice:
      case OpKind::kAllGather:
      case OpKind::kReduceScatter: {
        if (!expect_operands(1)) break;
        const auto& axes = op.attrs().Get<AxesPerDim>("axes_per_dim");
        if (static_cast<int>(axes.size()) !=
            op.operand(0)->tensor_type().rank()) {
          Error(StrCat(OpKindName(kind), " axes_per_dim rank mismatch"));
        }
        break;
      }
      default:
        break;
    }
  }

 private:
  std::vector<std::string>* diags_;
  std::unordered_set<const Value*> visible_;  // definitions in scope
};

}  // namespace

namespace {

void VerifyFuncInto(const Func& func, std::vector<std::string>& diags) {
  VerifierState state(&diags);
  if (func.body().num_ops() == 0 ||
      func.body().terminator()->kind() != OpKind::kReturn) {
    diags.push_back(StrCat("func @", func.name(), " must end in return"));
    return;
  }
  state.VerifyBlock(func.body());
}

}  // namespace

std::vector<std::string> Verify(const Module& module) {
  std::vector<std::string> diags;
  for (const auto& func : module.funcs()) {
    VerifyFuncInto(*func, diags);
  }
  return diags;
}

std::vector<std::string> Verify(const Func& func) {
  std::vector<std::string> diags;
  VerifyFuncInto(func, diags);
  return diags;
}

void VerifyOrDie(const Module& module) {
  std::vector<std::string> diags = Verify(module);
  if (!diags.empty()) {
    PARTIR_CHECK(false) << "module verification failed:\n"
                        << StrJoin(diags, "\n");
  }
}

}  // namespace partir
