#include "src/core/materialize.h"

#include <map>

#include "src/ir/builder.h"

namespace partir {
namespace {

class Materializer {
 public:
  Materializer(const PartitionContext& ctx, Module& out)
      : ctx_(ctx), out_(out) {}

  void Run() {
    const Func& src = *ctx_.func();
    Func* dst = out_.AddFunc(src.name());
    for (const auto& arg : src.body().args()) {
      map_[arg.get()] = dst->body().AddArg(arg->type(), arg->name());
    }
    for (const auto& op : src.body().ops()) {
      EmitOp(*op, dst->body());
    }
  }

 private:
  Value* Mapped(const Value* value) const {
    auto it = map_.find(value);
    PARTIR_CHECK(it != map_.end()) << "materialize: unmapped value";
    return it->second;
  }

  // Clones `op` into `block` with mapped operands and the given result type.
  Operation* CloneOpInto(const Operation& op, Block& block,
                         TensorType result_type) {
    std::vector<Value*> operands;
    for (const Value* operand : op.operands()) {
      operands.push_back(Mapped(operand));
    }
    return CloneOpWithOperands(op, block, std::move(result_type),
                               std::move(operands));
  }

  // Clones `op` with explicitly provided operand values (used by the
  // innermost loop body, where each operand slot carries its own slice —
  // a value used by several slots must not be unified through the map).
  Operation* CloneOpWithOperands(const Operation& op, Block& block,
                                 TensorType result_type,
                                 std::vector<Value*> operands) {
    std::vector<Type> result_types;
    if (op.num_results() == 1) result_types.push_back(result_type);
    auto clone = std::make_unique<Operation>(op.kind(), std::move(operands),
                                             std::move(result_types));
    CopyLocalAttrs(op, *clone);
    if (op.num_results() == 1) {
      clone->result()->set_name(op.result()->name());
    }
    return block.Append(std::move(clone));
  }

  void EmitOp(const Operation& op, Block& block) {
    if (op.kind() == OpKind::kReturn) {
      OpBuilder builder(&block);
      std::vector<Value*> operands;
      for (const Value* operand : op.operands()) {
        operands.push_back(Mapped(operand));
      }
      builder.Return(std::move(operands));
      return;
    }
    const std::vector<OpAxisEntry>& nest = ctx_.nest(&op);
    if (nest.empty() || op.num_results() != 1) {
      Operation* clone = CloneOpInto(
          op, block,
          op.num_results() == 1 ? op.result()->tensor_type() : TensorType());
      for (int i = 0; i < op.num_results(); ++i) {
        map_[op.result(i)] = clone->result(i);
      }
      return;
    }
    OpShardingSpec spec = GetShardingSpec(op);
    Value* result = BuildNest(op, spec, nest, 0, block,
                              op.result()->tensor_type());
    map_[op.result()] = result;
  }

  // Builds nest level `level`; `result_type` is the type *produced at this
  // level* (global at level 0, divided once per enclosing tile loop).
  Value* BuildNest(const Operation& op, const OpShardingSpec& spec,
                   const std::vector<OpAxisEntry>& nest, size_t level,
                   Block& block, TensorType result_type) {
    OpBuilder builder(&block);
    if (level == nest.size()) {
      return EmitInnermost(op, spec, nest, block, result_type);
    }
    const OpAxisEntry& entry = nest[level];
    const Factor& factor = spec.factors.at(entry.factor);
    int64_t axis_size = ctx_.mesh().AxisSize(entry.axis);
    std::string action = entry.contracting
                             ? (factor.reduction == "max" ? "max" : "sum")
                             : "tile";
    // "max" contracting loops reuse the sum action with a max combiner; the
    // interpreter dispatches on the attribute below.
    int64_t tile_dim = entry.contracting ? -1 : factor.result_dim;
    Operation* loop = builder.Loop(entry.axis, axis_size,
                                   entry.contracting ? "sum" : "tile",
                                   tile_dim, result_type);
    if (entry.contracting && factor.reduction != "sum") {
      loop->attrs().Set("reduction", factor.reduction);
    }
    Block& body = loop->region(0).block();
    ranges_[entry.axis] = body.arg(0);
    TensorType inner_type = result_type;
    if (!entry.contracting) {
      std::vector<int64_t> dims = inner_type.dims();
      PARTIR_CHECK(dims[tile_dim] % axis_size == 0);
      dims[tile_dim] /= axis_size;
      inner_type = TensorType(dims, inner_type.dtype());
    }
    Value* inner =
        BuildNest(op, spec, nest, level + 1, body, inner_type);
    OpBuilder body_builder(&body);
    body_builder.Yield(&body, {inner});
    (void)action;
    return loop->result();
  }

  // Innermost body: slice each operand per the nest's factors, then emit the
  // op at its local type.
  Value* EmitInnermost(const Operation& op, const OpShardingSpec& spec,
                       const std::vector<OpAxisEntry>& nest, Block& block,
                       TensorType local_type) {
    OpBuilder builder(&block);
    // Data constants cannot be shrunk: emit in full, slice the result.
    bool slice_result = op.kind() == OpKind::kConstant &&
                        op.attrs().Has("data");

    std::vector<Value*> local_operands;
    for (int i = 0; i < op.num_operands(); ++i) {
      Value* value = Mapped(op.operand(i));
      for (const OpAxisEntry& entry : nest) {
        const Factor& factor = spec.factors.at(entry.factor);
        if (i >= static_cast<int>(factor.operand_dims.size())) continue;
        int dim = factor.operand_dims[i];
        if (dim < 0) continue;
        value = builder.PSlice(value, ranges_.at(entry.axis), dim);
      }
      local_operands.push_back(value);
    }

    TensorType emit_type = slice_result ? op.result()->tensor_type()
                                        : local_type;
    Operation* clone =
        CloneOpWithOperands(op, block, emit_type, local_operands);

    Value* result = clone->result();
    if (slice_result) {
      for (const OpAxisEntry& entry : nest) {
        const Factor& factor = spec.factors.at(entry.factor);
        if (factor.result_dim < 0) continue;
        result = builder.PSlice(result, ranges_.at(entry.axis),
                                factor.result_dim);
      }
    }
    return result;
  }

  const PartitionContext& ctx_;
  Module& out_;
  std::map<const Value*, Value*> map_;
  std::map<std::string, Value*> ranges_;
};

}  // namespace

std::unique_ptr<Module> MaterializeLoops(const PartitionContext& ctx) {
  auto module = std::make_unique<Module>();
  Materializer(ctx, *module).Run();
  return module;
}

}  // namespace partir
