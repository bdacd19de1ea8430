#include "src/schedule/schedule.h"

#include "src/pass/pipeline.h"

namespace partir {
namespace {

/** Values a manual tactic's key selects: exact match, else substring match
 *  over function inputs and tagged values. */
std::vector<Value*> SelectValues(PartitionContext& ctx,
                                 const std::string& key) {
  if (Value* exact = ctx.FindValue(key)) return {exact};
  std::vector<Value*> matched;
  const Func& func = *ctx.func();
  for (const auto& arg : func.body().args()) {
    if (arg->name().find(key) != std::string::npos) {
      matched.push_back(arg.get());
    }
  }
  WalkOps(const_cast<Func&>(func).body(), [&](Operation& op) {
    if (op.kind() == OpKind::kTag &&
        op.attrs().Get<std::string>("name").find(key) !=
            std::string::npos) {
      matched.push_back(op.result());
    }
  });
  return matched;
}

/**
 * Applies one (value, dim, axis) action. Returns the number of actions that
 * took effect (0 or 1). A *malformed* explicit-dim tile (dim out of range,
 * indivisible dim) is an error, while a *state* conflict (value already
 * tiled or atomic on the axis) is a skip: tactic order resolves layout
 * conflicts (Section 5.2.3), and re-layout tactics like MQ legitimately
 * re-declare placements that propagation already inferred.
 * kFirstDivisibleDim stays best-effort because its contract is "shard if
 * some dim divides" (ZeRO-style tactics rely on skipping values that are
 * already placed or atomic).
 */
StatusOr<int> ApplyActionToValue(PartitionContext& ctx, Value* value,
                                 int64_t dim, const std::string& axis) {
  if (!value->type().IsTensor()) {
    return InvalidArgumentError("matched value '", value->name(),
                                "' is not a tensor");
  }
  if (dim == kReplicated) {
    ctx.AtomicValue(value, axis);
    return 1;
  }
  if (dim == kFirstDivisibleDim) {
    const TensorType& type = value->tensor_type();
    for (int64_t d = 0; d < type.rank(); ++d) {
      int64_t local = ctx.LocalDimSize(type.dims(), ctx.state(value), d);
      if (local % ctx.mesh().AxisSize(axis) == 0 &&
          !ctx.state(value).HasAxis(axis)) {
        if (ctx.TileValue(value, d, axis)) return 1;
      }
    }
    return 0;
  }
  // Explicit dim: re-stating an existing placement is a no-op, any other
  // failure carries the TileValue diagnosis.
  if (ctx.state(value).DimOfAxis(axis) == dim) return 0;
  Status status = ctx.TileValueOrError(value, dim, axis);
  if (status.ok()) return 1;
  if (status.code() != StatusCode::kFailedPrecondition) return status;
  return 0;
}

}  // namespace

StatusOr<int> ApplyManualTacticOrError(PartitionContext& ctx,
                                       const ManualPartition& tactic) {
  if (!ctx.mesh().HasAxis(tactic.axis)) {
    return InvalidArgumentError("tactic '", tactic.name,
                                "': unknown mesh axis '", tactic.axis,
                                "' (mesh is ", ctx.mesh().ToString(), ")");
  }
  int applied = 0;
  for (const auto& [key, dim] : tactic.inputs) {
    std::vector<Value*> values = SelectValues(ctx, key);
    if (values.empty()) {
      return NotFoundError("tactic '", tactic.name, "': key '", key,
                           "' matches no function input or tagged value");
    }
    for (Value* value : values) {
      StatusOr<int> action = ApplyActionToValue(ctx, value, dim, tactic.axis);
      if (!action.ok()) {
        return Status(action.status().code(),
                      StrCat("tactic '", tactic.name, "': ",
                             action.status().message()));
      }
      applied += action.value();
    }
  }
  return applied;
}

StatusOr<PartitionResult> PartirJitOrError(PartitionContext& ctx,
                                           const std::vector<Tactic>& schedule,
                                           const PartitionOptions& options) {
  // The pipeline is one function (pipeline.cc); this is just its
  // facade-facing name.
  return RunPartitionPipeline(ctx, schedule, options);
}

}  // namespace partir
