#include "src/core/context.h"

#include <algorithm>

#include "src/support/str_util.h"

namespace partir {

int64_t PartitionContext::LocalDimSize(const std::vector<int64_t>& dims,
                                       const ValueState& state,
                                       int64_t dim) const {
  int64_t size = dims.at(dim);
  for (const ValueTile& tile : state.tiles) {
    if (tile.dim == dim) size /= mesh_.AxisSize(tile.axis);
  }
  return size;
}

PartitionContext::TileCheck PartitionContext::CheckTileValue(
    const Value* value, int64_t dim, const std::string& axis) const {
  if (!mesh_.HasAxis(axis)) return TileCheck::kUnknownAxis;
  if (!value->type().IsTensor()) return TileCheck::kNotTensor;
  const TensorType& type = value->tensor_type();
  if (dim < 0 || dim >= type.rank()) return TileCheck::kDimOutOfRange;
  const ValueState& current = state(value);
  if (current.HasAxis(axis)) return TileCheck::kAlreadyTiled;
  if (IsAtomic(value, axis)) return TileCheck::kAtomic;
  if (LocalDimSize(type.dims(), current, dim) % mesh_.AxisSize(axis) != 0) {
    return TileCheck::kIndivisible;
  }
  return TileCheck::kOk;
}

bool PartitionContext::TileValue(Value* value, int64_t dim,
                                 const std::string& axis) {
  switch (CheckTileValue(value, dim, axis)) {
    // Malformed calls are caller bugs, not infeasible actions: abort, as
    // the pre-Status API did, so search loops cannot silently prune them.
    case TileCheck::kUnknownAxis:
      PARTIR_CHECK(false) << "unknown mesh axis '" << axis << "'";
      return false;
    case TileCheck::kNotTensor:
      PARTIR_CHECK(false) << "tile target must be a tensor";
      return false;
    case TileCheck::kDimOutOfRange:
      PARTIR_CHECK(false) << "tile dim " << dim << " out of range for '"
                          << value->name() << "'";
      return false;
    case TileCheck::kAlreadyTiled:
    case TileCheck::kAtomic:
    case TileCheck::kIndivisible:
      return false;
    case TileCheck::kOk:
      break;
  }
  value_state_[value].tiles.push_back(ValueTile{axis, dim, /*seeded=*/true});
  return true;
}

Status PartitionContext::TileValueOrError(Value* value, int64_t dim,
                                          const std::string& axis) {
  switch (CheckTileValue(value, dim, axis)) {
    case TileCheck::kUnknownAxis:
      return InvalidArgumentError("unknown mesh axis '", axis, "' (mesh is ",
                                  mesh_.ToString(), ")");
    case TileCheck::kNotTensor:
      return InvalidArgumentError("tile target '", value->name(),
                                  "' is not a tensor");
    case TileCheck::kDimOutOfRange:
      return InvalidArgumentError("tile dim ", dim, " out of range for '",
                                  value->name(), "' of rank ",
                                  value->tensor_type().rank());
    case TileCheck::kAlreadyTiled:
      return FailedPreconditionError(
          "value '", value->name(), "' is already tiled along axis '", axis,
          "' (on dim ", state(value).DimOfAxis(axis), ")");
    case TileCheck::kAtomic:
      return FailedPreconditionError(
          "value '", value->name(),
          "' is atomic (kept replicated) on axis '", axis, "'");
    case TileCheck::kIndivisible:
      return InvalidArgumentError(
          "dim ", dim, " of '", value->name(), "' has local size ",
          LocalDimSize(value->tensor_type().dims(), state(value), dim),
          ", not divisible by axis '", axis, "' of size ",
          mesh_.AxisSize(axis));
    case TileCheck::kOk:
      break;
  }
  value_state_[value].tiles.push_back(ValueTile{axis, dim, /*seeded=*/true});
  return Status::Ok();
}

void PartitionContext::AtomicValue(Value* value, const std::string& axis) {
  PARTIR_CHECK(mesh_.HasAxis(axis)) << "unknown axis '" << axis << "'";
  atomic_[value].insert(axis);
}

std::vector<ValueTile> PartitionContext::RealizedTiles(
    const Value* value) const {
  if (value->IsBlockArg()) return state(value).tiles;
  const Operation* def = value->def();
  PARTIR_CHECK(def != nullptr) << "value has no defining op";
  std::vector<ValueTile> tiles;
  OpShardingSpec spec = GetShardingSpec(*def);
  for (const OpAxisEntry& entry : nest(def)) {
    if (entry.contracting) continue;
    const Factor& factor = spec.factors.at(entry.factor);
    PARTIR_CHECK(factor.result_dim >= 0);
    tiles.push_back(ValueTile{entry.axis, factor.result_dim});
  }
  // Scatter-realized contracting axes: the boundary realization re-tiles the
  // reduced result (all_reduce + all_slice -> reduce_scatter after the SPMD
  // peephole), so the value is *produced* tiled on the state's dim.
  for (const OpAxisEntry& entry : nest(def)) {
    if (!entry.contracting) continue;
    int64_t dim = state(value).DimOfAxis(entry.axis);
    if (dim >= 0) tiles.push_back(ValueTile{entry.axis, dim});
  }
  return tiles;
}

std::vector<int64_t> PartitionContext::LocalDims(const Value* value) const {
  std::vector<int64_t> dims = value->tensor_type().dims();
  for (const ValueTile& tile : RealizedTiles(value)) {
    PARTIR_CHECK(dims[tile.dim] % mesh_.AxisSize(tile.axis) == 0);
    dims[tile.dim] /= mesh_.AxisSize(tile.axis);
  }
  return dims;
}

Value* PartitionContext::FindValue(const std::string& name) const {
  if (Value* arg = func_->FindArg(name)) return arg;
  Value* found = nullptr;
  WalkOps(func_->body(), [&](const Operation& op) {
    if (op.kind() == OpKind::kTag &&
        op.attrs().Get<std::string>("name") == name) {
      found = op.result();
    }
  });
  return found;
}

namespace {

/** A candidate propagation step: tile op along `axis` via `factor`. */
struct Candidate {
  std::string axis;
  int factor;
};

}  // namespace

/** Runs the propagation fixpoint over a PartitionContext. */
class Propagator {
 public:
  explicit Propagator(PartitionContext& ctx) : ctx_(ctx) {}

  int Run() {
    int total_applied = 0;
    bool changed = true;
    while (changed) {
      changed = false;
      WalkOps(ctx_.func_->body(), [&](Operation& op) {
        int applied = VisitOp(op);
        if (applied > 0) changed = true;
        total_applied += applied;
      });
    }
    return total_applied;
  }

 private:
  void ReportConflict(const Operation* op, const std::string& axis,
                      const std::string& reason) {
    if (!ctx_.reported_.insert({op, axis}).second) return;
    ctx_.conflicts_.push_back(Conflict{op, axis, reason});
  }

  bool OpHasAxis(const Operation* op, const std::string& axis,
                 int* factor = nullptr) const {
    for (const OpAxisEntry& entry : ctx_.nest(op)) {
      if (entry.axis == axis) {
        if (factor != nullptr) *factor = entry.factor;
        return true;
      }
    }
    return false;
  }

  // Collects axis -> candidate factors for one op, from operand states
  // (forward propagation) and the result state (backward propagation).
  std::vector<std::pair<std::string, std::vector<Candidate>>> CollectByAxis(
      const Operation& op, const OpShardingSpec& spec) {
    std::vector<std::pair<std::string, std::vector<Candidate>>> by_axis;
    auto add = [&](const std::string& axis, int factor) {
      for (auto& [a, cands] : by_axis) {
        if (a != axis) continue;
        for (const Candidate& c : cands) {
          if (c.factor == factor) return;
        }
        cands.push_back(Candidate{axis, factor});
        return;
      }
      by_axis.push_back({axis, {Candidate{axis, factor}}});
    };
    // Forward: operand value tiles matching a factor dim.
    for (int i = 0; i < op.num_operands(); ++i) {
      const ValueState& state = ctx_.state(op.operand(i));
      for (const ValueTile& tile : state.tiles) {
        int factor = spec.FactorForOperandDim(i, static_cast<int>(tile.dim));
        if (factor >= 0) add(tile.axis, factor);
      }
    }
    // Backward: result value tiles matching a factor's result dim.
    if (op.num_results() == 1) {
      const ValueState& state = ctx_.state(op.result());
      for (const ValueTile& tile : state.tiles) {
        int factor = spec.FactorForResultDim(static_cast<int>(tile.dim));
        if (factor >= 0) add(tile.axis, factor);
      }
    }
    return by_axis;
  }

  int VisitOp(Operation& op) {
    if (op.kind() == OpKind::kReturn || op.kind() == OpKind::kYield) return 0;
    // Barrier tags (Section 3 "propagation barriers"): tilings never flow
    // across them; lowering redistributes producer->consumer placements.
    if (op.kind() == OpKind::kTag &&
        op.attrs().GetOr<int64_t>("barrier", 0) == 1) {
      return 0;
    }
    OpShardingSpec spec = GetShardingSpec(op);
    if (!spec.propagatable) return 0;
    int applied = 0;
    for (auto& [axis, candidates] : CollectByAxis(op, spec)) {
      int existing_factor = -1;
      if (OpHasAxis(&op, axis, &existing_factor)) {
        // Axis already in the nest. A candidate for a *different* factor is
        // a genuine conflict (two TMR entries match, Section 5.2.3);
        // tactic ordering has already prioritized the existing one.
        for (const Candidate& candidate : candidates) {
          if (candidate.factor != existing_factor) {
            ReportConflict(&op, axis,
                           "axis already bound to another factor "
                           "(resolved by tactic order)");
          }
        }
        continue;
      }
      if (candidates.size() > 1) {
        // Multiple TMR entries match simultaneously: never auto-resolve.
        ReportConflict(&op, axis, "multiple TMR entries match");
        continue;
      }
      const Candidate& candidate = candidates.front();
      // Realization boundary (Section 5.2.4): a contracting step creates a
      // partial value; consult the policy for how to realize it before
      // committing to the #sum nest entry. Only steps the baseline
      // all_reduce realization would actually commit are offered to the
      // policy: refused steps (atomic or indivisible operands, axis already
      // summing the result) keep their historical refusal diagnostics — and
      // schedules that rely on refusal-driven per-use gathers (e.g. Z3's
      // weight re-gathers) lower byte-identically with the policy installed.
      if (ctx_.realization_policy_ != nullptr &&
          spec.factors.at(candidate.factor).contracting &&
          ContractingStepWouldApply(op, spec.factors.at(candidate.factor),
                                    candidate.axis)) {
        switch (DecideRealization(op, candidate)) {
          case Realization::kGather:
            // Stop here: no nest entry means lowering all_gathers the tiled
            // operands and computes the op replicated.
            continue;
          case Realization::kScatter:
            if (TryApplyScatter(op, spec, candidate)) ++applied;
            continue;
          case Realization::kReduce:
            break;
        }
      }
      if (TryApply(op, spec, candidate)) {
        ++applied;
      }
    }
    return applied;
  }

  // Quiet preview of TryApply's contracting-entry checks: true when the
  // baseline kReduce realization would commit this step. No conflicts are
  // reported here; a refused step falls through to TryApply, which reports
  // them exactly as it did before realization policies existed.
  bool ContractingStepWouldApply(Operation& op, const Factor& factor,
                                 const std::string& axis) {
    if (!OperandsFeasible(op, factor, axis, /*report=*/false)) return false;
    if (op.num_results() == 1 && ctx_.state(op.result()).HasAxis(axis)) {
      return false;
    }
    return true;
  }

  // Looks up or makes the realization decision for a contracting step.
  Realization DecideRealization(Operation& op, const Candidate& candidate) {
    auto key = std::make_pair(static_cast<const Operation*>(&op),
                              candidate.axis);
    auto it = ctx_.realizations_.find(key);
    if (it != ctx_.realizations_.end()) return it->second;

    BoundarySite site;
    site.op = &op;
    site.axis = candidate.axis;
    site.factor = candidate.factor;
    site.scatter_dim = DefaultScatterDim(op, candidate.axis);
    Realization realization = ctx_.realization_policy_(site);
    if (realization == Realization::kScatter &&
        !ScatterFeasible(op, candidate.axis, site.scatter_dim)) {
      realization = Realization::kReduce;
    }
    if (realization == Realization::kScatter) {
      ctx_.scatter_dims_[key] = site.scatter_dim;
    }
    ctx_.realizations_[key] = realization;
    return realization;
  }

  // The highest result dim whose local size divides the axis — the default
  // reduce_scatter target (innermost dims keep contiguous shards).
  int64_t DefaultScatterDim(const Operation& op, const std::string& axis) {
    if (op.num_results() != 1 || !op.result()->type().IsTensor()) return -1;
    Value* result = op.result();
    const std::vector<int64_t>& dims = result->tensor_type().dims();
    const ValueState& state = ctx_.state(result);
    int64_t axis_size = ctx_.mesh_.AxisSize(axis);
    for (int64_t d = result->tensor_type().rank() - 1; d >= 0; --d) {
      if (state.DimOfAxis(axis) < 0 &&
          ctx_.LocalDimSize(dims, state, d) % axis_size == 0) {
        return d;
      }
    }
    return -1;
  }

  bool ScatterFeasible(const Operation& op, const std::string& axis,
                       int64_t scatter_dim) {
    if (op.num_results() != 1 || !op.result()->type().IsTensor()) return false;
    Value* result = op.result();
    if (scatter_dim < 0 || scatter_dim >= result->tensor_type().rank()) {
      return false;
    }
    const ValueState& state = ctx_.state(result);
    if (state.HasAxis(axis) || ctx_.IsAtomic(result, axis)) return false;
    return ctx_.LocalDimSize(result->tensor_type().dims(), state,
                             scatter_dim) %
               ctx_.mesh_.AxisSize(axis) ==
           0;
  }

  // Applies a contracting entry with the kScatter realization: the #sum nest
  // entry plus a result-state tile on the chosen scatter dim (which TryApply
  // would refuse as "sum axis already tiles the result" — here it is the
  // realization, not a double nesting).
  bool TryApplyScatter(Operation& op, const OpShardingSpec& spec,
                       const Candidate& candidate) {
    const Factor& factor = spec.factors.at(candidate.factor);
    const std::string& axis = candidate.axis;
    if (!OperandsFeasible(op, factor, axis)) return false;
    auto key = std::make_pair(static_cast<const Operation*>(&op), axis);
    int64_t scatter_dim = ctx_.scatter_dims_.at(key);
    if (!ScatterFeasible(op, axis, scatter_dim)) {
      ReportConflict(&op, axis, "scatter realization no longer feasible");
      return false;
    }
    ctx_.op_nest_[&op].push_back(
        OpAxisEntry{axis, /*contracting=*/true, candidate.factor});
    ctx_.value_state_[op.result()].tiles.push_back(
        ValueTile{axis, scatter_dim});
    ApplyOperandTiles(op, factor, axis);
    return true;
  }

  // Checks feasibility of tiling `op` along candidate.axis via the factor,
  // and applies it: appends the nest entry, updates the result state, and
  // infers missing operand tiles (Section 5.2.2 "inference").
  // Operand-side feasibility of one factor along `axis` (shared by the
  // reduce and scatter realizations).
  bool OperandsFeasible(Operation& op, const Factor& factor,
                        const std::string& axis, bool report = true) {
    int64_t axis_size = ctx_.mesh_.AxisSize(axis);
    for (int i = 0; i < op.num_operands(); ++i) {
      if (i >= static_cast<int>(factor.operand_dims.size())) break;
      int dim = factor.operand_dims[i];
      if (dim < 0) continue;
      Value* operand = op.operand(i);
      const ValueState& state = ctx_.state(operand);
      int64_t existing = state.DimOfAxis(axis);
      // An operand already tiled on a *different* dim does not block the
      // entry: SPMD lowering redistributes it (all_to_all, Appendix C.5).
      if (existing < 0) {
        if (ctx_.IsAtomic(operand, axis)) {
          if (report) {
            ReportConflict(&op, axis, "operand is atomic (kept replicated)");
          }
          return false;
        }
        int64_t local = ctx_.LocalDimSize(operand->tensor_type().dims(),
                                          state, dim);
        if (local % axis_size != 0) {
          if (report) {
            ReportConflict(&op, axis, "operand dim not divisible by axis");
          }
          return false;
        }
      }
    }
    return true;
  }

  // Records the inferred operand tiles of an applied factor.
  void ApplyOperandTiles(Operation& op, const Factor& factor,
                         const std::string& axis) {
    for (int i = 0; i < op.num_operands(); ++i) {
      if (i >= static_cast<int>(factor.operand_dims.size())) break;
      int dim = factor.operand_dims[i];
      if (dim < 0) continue;
      ValueState& ostate = ctx_.value_state_[op.operand(i)];
      if (!ostate.HasAxis(axis)) {
        ostate.tiles.push_back(ValueTile{axis, dim});
      }
    }
  }

  bool TryApply(Operation& op, const OpShardingSpec& spec,
                const Candidate& candidate) {
    const Factor& factor = spec.factors.at(candidate.factor);
    const std::string& axis = candidate.axis;
    int64_t axis_size = ctx_.mesh_.AxisSize(axis);

    if (!OperandsFeasible(op, factor, axis)) return false;
    // Result feasibility (for tiling factors).
    Value* result = op.num_results() == 1 ? op.result() : nullptr;
    if (!factor.contracting) {
      PARTIR_CHECK(result != nullptr);
      const ValueState& state = ctx_.state(result);
      int64_t existing = state.DimOfAxis(axis);
      if (existing >= 0 && existing != factor.result_dim) {
        ReportConflict(&op, axis, "result tiled on a different dim");
        return false;
      }
      if (ctx_.IsAtomic(result, axis)) {
        ReportConflict(&op, axis, "result is atomic (kept replicated)");
        return false;
      }
      if (existing < 0) {
        int64_t local = ctx_.LocalDimSize(result->tensor_type().dims(), state,
                                          factor.result_dim);
        if (local % axis_size != 0) {
          ReportConflict(&op, axis, "result dim not divisible by axis");
          return false;
        }
      }
    } else if (result != nullptr && ctx_.state(result).HasAxis(axis)) {
      // Result already tiled along this axis by another factor: summing over
      // the same axis would nest it twice.
      ReportConflict(&op, axis, "sum axis already tiles the result");
      return false;
    }

    // Apply.
    ctx_.op_nest_[&op].push_back(
        OpAxisEntry{axis, factor.contracting, candidate.factor});
    if (!factor.contracting) {
      ValueState& rstate = ctx_.value_state_[result];
      if (!rstate.HasAxis(axis)) {
        rstate.tiles.push_back(ValueTile{axis, factor.result_dim});
      }
    }
    ApplyOperandTiles(op, factor, axis);
    return true;
  }

  PartitionContext& ctx_;
};

int PartitionContext::Propagate() { return Propagator(*this).Run(); }

bool PartitionContext::ForceOpAxis(Operation* op, const std::string& axis,
                                   int factor_index) {
  OpShardingSpec spec = GetShardingSpec(*op);
  if (!spec.propagatable) return false;
  if (factor_index < 0 ||
      factor_index >= static_cast<int>(spec.factors.size())) {
    return false;
  }
  for (const OpAxisEntry& entry : nest(op)) {
    if (entry.axis == axis) return false;
  }
  const Factor& factor = spec.factors[factor_index];
  int64_t axis_size = mesh_.AxisSize(axis);
  // Structural feasibility: sliced dims must divide.
  for (int i = 0; i < op->num_operands(); ++i) {
    if (i >= static_cast<int>(factor.operand_dims.size())) break;
    int dim = factor.operand_dims[i];
    if (dim < 0) continue;
    const Value* operand = op->operand(i);
    int64_t local = LocalDimSize(operand->tensor_type().dims(),
                                 ValueState{}, dim);
    for (const OpAxisEntry& entry : nest(op)) {
      const Factor& other = spec.factors[entry.factor];
      if (i < static_cast<int>(other.operand_dims.size()) &&
          other.operand_dims[i] == dim) {
        local /= mesh_.AxisSize(entry.axis);
      }
    }
    if (local % axis_size != 0) return false;
  }
  if (!factor.contracting) {
    Value* result = op->result();
    ValueState& rstate = value_state_[result];
    if (rstate.HasAxis(axis) &&
        rstate.DimOfAxis(axis) != factor.result_dim) {
      return false;
    }
    int64_t local = LocalDimSize(result->tensor_type().dims(), rstate,
                                 factor.result_dim);
    if (!rstate.HasAxis(axis)) {
      if (local % axis_size != 0) return false;
      rstate.tiles.push_back(ValueTile{axis, factor.result_dim});
    }
  }
  op_nest_[op].push_back(
      OpAxisEntry{axis, factor.contracting, factor_index});
  return true;
}

}  // namespace partir
