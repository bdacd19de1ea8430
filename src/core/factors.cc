#include "src/core/factors.h"

#include <algorithm>

namespace partir {
namespace {

// Identity mapping: every dim of every operand maps to the same result dim.
OpShardingSpec ElementwiseSpec(const Operation& op) {
  OpShardingSpec spec;
  int rank = op.result()->tensor_type().rank();
  for (int d = 0; d < rank; ++d) {
    Factor factor;
    factor.operand_dims.assign(op.num_operands(), d);
    factor.result_dim = d;
    spec.factors.push_back(std::move(factor));
  }
  return spec;
}

// Result-only factors: each result dim may be tiled without slicing any
// operand (constants, iota non-iota dims, broadcasted dims).
Factor ResultOnlyFactor(int num_operands, int result_dim) {
  Factor factor;
  factor.operand_dims.assign(num_operands, -1);
  factor.result_dim = result_dim;
  return factor;
}

OpShardingSpec DotSpec(const Operation& op) {
  OpShardingSpec spec;
  const auto& lc = op.attrs().Get<std::vector<int64_t>>("lhs_contract");
  const auto& rc = op.attrs().Get<std::vector<int64_t>>("rhs_contract");
  const auto& lb = op.attrs().Get<std::vector<int64_t>>("lhs_batch");
  const auto& rb = op.attrs().Get<std::vector<int64_t>>("rhs_batch");
  const TensorType& lt = op.operand(0)->tensor_type();
  const TensorType& rt = op.operand(1)->tensor_type();
  auto contains = [](const std::vector<int64_t>& v, int64_t x) {
    return std::find(v.begin(), v.end(), x) != v.end();
  };
  int result_pos = 0;
  // Batch factors.
  for (size_t i = 0; i < lb.size(); ++i) {
    Factor factor;
    factor.operand_dims = {static_cast<int>(lb[i]), static_cast<int>(rb[i])};
    factor.result_dim = result_pos++;
    spec.factors.push_back(std::move(factor));
  }
  // LHS free factors.
  for (int d = 0; d < lt.rank(); ++d) {
    if (contains(lc, d) || contains(lb, d)) continue;
    Factor factor;
    factor.operand_dims = {d, -1};
    factor.result_dim = result_pos++;
    spec.factors.push_back(std::move(factor));
  }
  // RHS free factors.
  for (int d = 0; d < rt.rank(); ++d) {
    if (contains(rc, d) || contains(rb, d)) continue;
    Factor factor;
    factor.operand_dims = {-1, d};
    factor.result_dim = result_pos++;
    spec.factors.push_back(std::move(factor));
  }
  // Contracting factors.
  for (size_t i = 0; i < lc.size(); ++i) {
    Factor factor;
    factor.operand_dims = {static_cast<int>(lc[i]), static_cast<int>(rc[i])};
    factor.contracting = true;
    spec.factors.push_back(std::move(factor));
  }
  return spec;
}

OpShardingSpec ReduceSpec(const Operation& op) {
  OpShardingSpec spec;
  const auto& dims = op.attrs().Get<std::vector<int64_t>>("dims");
  const std::string& reduction = op.attrs().Get<std::string>("reduction");
  const TensorType& in = op.operand(0)->tensor_type();
  auto contains = [&](int64_t x) {
    return std::find(dims.begin(), dims.end(), x) != dims.end();
  };
  int result_pos = 0;
  for (int d = 0; d < in.rank(); ++d) {
    Factor factor;
    factor.operand_dims = {d};
    if (contains(d)) {
      factor.contracting = true;
      factor.reduction = reduction;
    } else {
      factor.result_dim = result_pos++;
    }
    spec.factors.push_back(std::move(factor));
  }
  return spec;
}

OpShardingSpec TransposeSpec(const Operation& op) {
  OpShardingSpec spec;
  const auto& perm = op.attrs().Get<std::vector<int64_t>>("perm");
  for (size_t r = 0; r < perm.size(); ++r) {
    Factor factor;
    factor.operand_dims = {static_cast<int>(perm[r])};
    factor.result_dim = static_cast<int>(r);
    spec.factors.push_back(std::move(factor));
  }
  return spec;
}

OpShardingSpec BroadcastSpec(const Operation& op) {
  OpShardingSpec spec;
  const auto& bcast = op.attrs().Get<std::vector<int64_t>>("broadcast_dims");
  int result_rank = op.result()->tensor_type().rank();
  for (int r = 0; r < result_rank; ++r) {
    bool mapped = false;
    for (size_t i = 0; i < bcast.size(); ++i) {
      if (bcast[i] == r) {
        Factor factor;
        factor.operand_dims = {static_cast<int>(i)};
        factor.result_dim = r;
        spec.factors.push_back(std::move(factor));
        mapped = true;
        break;
      }
    }
    if (!mapped) spec.factors.push_back(ResultOnlyFactor(1, r));
  }
  return spec;
}

OpShardingSpec ConcatenateSpec(const Operation& op) {
  OpShardingSpec spec;
  int64_t concat_dim = op.attrs().Get<int64_t>("dim");
  int rank = op.result()->tensor_type().rank();
  for (int d = 0; d < rank; ++d) {
    if (d == concat_dim) continue;  // Blocked: no factor for the concat dim.
    Factor factor;
    factor.operand_dims.assign(op.num_operands(), d);
    factor.result_dim = d;
    spec.factors.push_back(std::move(factor));
  }
  return spec;
}

OpShardingSpec GatherSpec(const Operation& op) {
  // (table, indices) -> result of shape indices.dims ++ table.dims[1:].
  OpShardingSpec spec;
  const TensorType& table = op.operand(0)->tensor_type();
  const TensorType& indices = op.operand(1)->tensor_type();
  for (int d = 0; d < indices.rank(); ++d) {
    Factor factor;
    factor.operand_dims = {-1, d};
    factor.result_dim = d;
    spec.factors.push_back(std::move(factor));
  }
  // Table dim 0 (the vocabulary) is blocked: tiling it would require masked
  // lookups plus a reduction, which PartIR leaves to explicit tactics.
  for (int d = 1; d < table.rank(); ++d) {
    Factor factor;
    factor.operand_dims = {d, -1};
    factor.result_dim = indices.rank() + d - 1;
    spec.factors.push_back(std::move(factor));
  }
  return spec;
}

OpShardingSpec ScatterAddSpec(const Operation& op) {
  // (indices, updates) -> zeros(num_rows, row_shape) scatter-added, where
  // updates dims = indices dims ++ row_shape.
  OpShardingSpec spec;
  const TensorType& indices = op.operand(0)->tensor_type();
  const TensorType& updates = op.operand(1)->tensor_type();
  // Tiling any of the indices dims (and the matching updates dims)
  // partitions the contributions; each shard scatters locally and the
  // partial results are summed — the essence of GNS edge sharding
  // (Section 7.3) and of sharded embedding gradients.
  for (int d = 0; d < indices.rank(); ++d) {
    Factor contracted;
    contracted.operand_dims = {d, d};
    contracted.contracting = true;
    spec.factors.push_back(std::move(contracted));
  }
  for (int d = indices.rank(); d < updates.rank(); ++d) {
    Factor factor;
    factor.operand_dims = {-1, d};
    factor.result_dim = d - indices.rank() + 1;
    spec.factors.push_back(std::move(factor));
  }
  // Result dim 0 (the row space) is blocked, like gather's table dim 0.
  return spec;
}

OpShardingSpec ConvolutionSpec(const Operation& op) {
  OpShardingSpec spec;
  (void)op;
  // NHWC x HWIO -> NHWC. Spatial dims are blocked (halo exchange is out of
  // scope, paper Section 8 "Padding and spatial partitioning").
  Factor batch;
  batch.operand_dims = {0, -1};
  batch.result_dim = 0;
  spec.factors.push_back(std::move(batch));
  Factor out_channels;
  out_channels.operand_dims = {-1, 3};
  out_channels.result_dim = 3;
  spec.factors.push_back(std::move(out_channels));
  Factor in_channels;
  in_channels.operand_dims = {3, 2};
  in_channels.contracting = true;
  spec.factors.push_back(std::move(in_channels));
  return spec;
}

OpShardingSpec ConvInputGradSpec(const Operation& op) {
  OpShardingSpec spec;
  (void)op;
  // (gout NHWC', filter HWIO) -> gin NHWC.
  Factor batch;
  batch.operand_dims = {0, -1};
  batch.result_dim = 0;
  spec.factors.push_back(std::move(batch));
  Factor in_channels;
  in_channels.operand_dims = {-1, 2};
  in_channels.result_dim = 3;
  spec.factors.push_back(std::move(in_channels));
  Factor out_channels;
  out_channels.operand_dims = {3, 3};
  out_channels.contracting = true;
  spec.factors.push_back(std::move(out_channels));
  return spec;
}

OpShardingSpec ConvFilterGradSpec(const Operation& op) {
  OpShardingSpec spec;
  (void)op;
  // (gout NHWC', input NHWC) -> gfilter HWIO.
  Factor out_channels;
  out_channels.operand_dims = {3, -1};
  out_channels.result_dim = 3;
  spec.factors.push_back(std::move(out_channels));
  Factor in_channels;
  in_channels.operand_dims = {-1, 3};
  in_channels.result_dim = 2;
  spec.factors.push_back(std::move(in_channels));
  Factor batch;
  batch.operand_dims = {0, 0};
  batch.contracting = true;
  spec.factors.push_back(std::move(batch));
  return spec;
}

OpShardingSpec ConstantSpec(const Operation& op) {
  OpShardingSpec spec;
  int rank = op.result()->tensor_type().rank();
  bool is_iota = op.kind() == OpKind::kIota;
  int64_t iota_dim = is_iota ? op.attrs().Get<int64_t>("dim") : -1;
  for (int d = 0; d < rank; ++d) {
    // An iota cannot be tiled along its own dimension without a device-id
    // offset, so that dim is blocked; everything else is free to tile.
    if (is_iota && d == iota_dim) continue;
    spec.factors.push_back(ResultOnlyFactor(op.num_operands(), d));
  }
  return spec;
}

}  // namespace

OpShardingSpec GetShardingSpec(const Operation& op) {
  OpKind kind = op.kind();
  if (IsUnaryElementwise(kind)) return ElementwiseSpec(op);
  if (IsBinaryElementwise(kind)) return ElementwiseSpec(op);
  switch (kind) {
    case OpKind::kTag:
      return ElementwiseSpec(op);
    case OpKind::kConstant:
    case OpKind::kIota:
      return ConstantSpec(op);
    case OpKind::kDot:
      return DotSpec(op);
    case OpKind::kTranspose:
      return TransposeSpec(op);
    case OpKind::kReduce:
      return ReduceSpec(op);
    case OpKind::kBroadcastInDim:
      return BroadcastSpec(op);
    case OpKind::kConcatenate:
      return ConcatenateSpec(op);
    case OpKind::kGather:
      return GatherSpec(op);
    case OpKind::kScatterAdd:
      return ScatterAddSpec(op);
    case OpKind::kConvolution:
      return ConvolutionSpec(op);
    case OpKind::kConvInputGrad:
      return ConvInputGradSpec(op);
    case OpKind::kConvFilterGrad:
      return ConvFilterGradSpec(op);
    case OpKind::kReshape: {
      // Identity reshapes propagate; general reshapes are blocked
      // (paper Section 8 "Reshape support").
      const TensorType& in = op.operand(0)->tensor_type();
      const TensorType& out = op.result()->tensor_type();
      if (in.dims() == out.dims()) return ElementwiseSpec(op);
      OpShardingSpec spec;
      spec.propagatable = false;
      return spec;
    }
    case OpKind::kStaticSlice: {
      // Dims taken in full propagate; genuinely sliced dims are blocked. A
      // tiled full dim gets device-local bounds where the op is emitted at
      // its local type (CopyLocalAttrs).
      OpShardingSpec spec;
      const auto& starts = op.attrs().Get<std::vector<int64_t>>("starts");
      const auto& limits = op.attrs().Get<std::vector<int64_t>>("limits");
      const TensorType& in = op.operand(0)->tensor_type();
      for (int d = 0; d < in.rank(); ++d) {
        if (starts[d] == 0 && limits[d] == in.dim(d)) {
          Factor factor;
          factor.operand_dims = {d};
          factor.result_dim = d;
          spec.factors.push_back(std::move(factor));
        }
      }
      return spec;
    }
    case OpKind::kReturn:
    case OpKind::kYield:
    case OpKind::kLoop:
    case OpKind::kPSlice:
    default: {
      OpShardingSpec spec;
      spec.propagatable = false;
      return spec;
    }
  }
}

bool ChainContainsRsqrt(const Value* v, int depth) {
  if (v->IsBlockArg() || depth < 0) return false;
  const Operation* def = v->def();
  if (def == nullptr) return false;
  if (def->kind() == OpKind::kRsqrt) return true;
  if (!IsUnaryElementwise(def->kind()) && !IsBinaryElementwise(def->kind())) {
    return false;
  }
  for (int i = 0; i < def->num_operands(); ++i) {
    if (ChainContainsRsqrt(def->operand(i), depth - 1)) return true;
  }
  return false;
}

namespace {

bool IsNormalizationOutputImpl(const Value* v, int depth) {
  if (v->IsBlockArg() || depth > 2) return false;
  const Operation* def = v->def();
  if (def == nullptr || def->kind() != OpKind::kMul) return false;
  for (int i = 0; i < def->num_operands(); ++i) {
    const Value* o = def->operand(i);
    if (!o->IsBlockArg() && o->def() != nullptr &&
        o->def()->kind() == OpKind::kBroadcastInDim &&
        ChainContainsRsqrt(o->def()->operand(0))) {
      return true;
    }
  }
  for (int i = 0; i < def->num_operands(); ++i) {
    if (IsNormalizationOutputImpl(def->operand(i), depth + 1)) return true;
  }
  return false;
}

}  // namespace

void CopyLocalAttrs(const Operation& src, Operation& clone) {
  clone.attrs() = src.attrs();
  if (src.kind() != OpKind::kStaticSlice) return;
  std::vector<int64_t> limits =
      src.attrs().Get<std::vector<int64_t>>("starts");
  const std::vector<int64_t>& dims = clone.result()->tensor_type().dims();
  for (size_t d = 0; d < limits.size(); ++d) limits[d] += dims[d];
  clone.attrs().Set("limits", std::move(limits));
}

bool IsNormalizationOutput(const Value* v) {
  return IsNormalizationOutputImpl(v, 0);
}

bool IsStatisticsReduce(const Operation& op, bool* second_moment) {
  if (op.kind() != OpKind::kReduce) return false;
  const auto& dims = op.attrs().Get<std::vector<int64_t>>("dims");
  int64_t rank = op.operand(0)->tensor_type().rank();
  if (dims.size() != 1 || dims[0] != rank - 1) return false;
  if (second_moment != nullptr) {
    const Value* o = op.operand(0);
    const Operation* def = o->IsBlockArg() ? nullptr : o->def();
    *second_moment = def != nullptr && def->kind() == OpKind::kMul &&
                     def->operand(0) == def->operand(1);
  }
  return true;
}

}  // namespace partir
