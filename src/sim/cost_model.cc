#include "src/sim/cost_model.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <vector>

#include "src/core/factors.h"
#include "src/spmd/collectives.h"
#include "src/support/str_util.h"

namespace partir {

std::string SimEstimate::ToString() const {
  return StrCat("compute=", compute_seconds * 1e3, "ms comm=",
                comm_seconds * 1e3, "ms step=", step_seconds * 1e3,
                "ms peak_mem=", peak_memory_bytes / 1e9, "GB");
}

double OpFlops(const Operation& op) {
  auto result_elems = [&]() -> double {
    if (op.num_results() != 1 || !op.result()->type().IsTensor()) return 0;
    return static_cast<double>(op.result()->tensor_type().NumElements());
  };
  switch (op.kind()) {
    case OpKind::kDot: {
      const auto& lc = op.attrs().Get<std::vector<int64_t>>("lhs_contract");
      const TensorType& lt = op.operand(0)->tensor_type();
      double k = 1;
      for (int64_t c : lc) k *= static_cast<double>(lt.dim(c));
      return 2.0 * result_elems() * k;
    }
    case OpKind::kConvolution:
    case OpKind::kConvInputGrad:
    case OpKind::kConvFilterGrad: {
      // 2 * output_elems * receptive field.
      const Operation* ref = &op;
      // Filter shape: operand 1 for conv & input-grad; result for f-grad.
      const TensorType& filter =
          op.kind() == OpKind::kConvFilterGrad
              ? op.result()->tensor_type()
              : ref->operand(1)->tensor_type();
      double window = static_cast<double>(filter.dim(0)) *
                      static_cast<double>(filter.dim(1)) *
                      static_cast<double>(filter.dim(2));
      double out = op.kind() == OpKind::kConvFilterGrad
                       ? static_cast<double>(
                             op.operand(0)->tensor_type().NumElements())
                       : result_elems();
      return 2.0 * out * window;
    }
    case OpKind::kReduce:
      return static_cast<double>(
          op.operand(0)->tensor_type().NumElements());
    case OpKind::kScatterAdd:
      return static_cast<double>(
          op.operand(1)->tensor_type().NumElements());
    case OpKind::kConstant:
    case OpKind::kIota:
    case OpKind::kTranspose:
    case OpKind::kReshape:
    case OpKind::kBroadcastInDim:
    case OpKind::kConcatenate:
    case OpKind::kStaticSlice:
    case OpKind::kGather:
    case OpKind::kTag:
    case OpKind::kReturn:
    case OpKind::kAllSlice:
      return 0;
    case OpKind::kAllReduce:
    case OpKind::kReduceScatter:
      return result_elems();  // reduction math
    default:
      // Elementwise and everything else: one flop per output element.
      return result_elems();
  }
}

double FuncFlops(const Func& func) {
  double flops = 0;
  WalkOps(func.body(), [&](const Operation& op) { flops += OpFlops(op); });
  return flops;
}

namespace {

// Communication seconds for one collective: a link latency plus its ring
// bytes over the link bandwidth. A group of one costs nothing.
double CollectiveSeconds(const Operation& op, const Mesh& mesh,
                         const DeviceSpec& device) {
  if (!IsCollective(op.kind()) || op.kind() == OpKind::kAllSlice ||
      CollectiveGroupSize(op, mesh) <= 1) {
    return 0;
  }
  return device.link_latency_s + RingBytes(op, mesh) / device.link_bandwidth;
}

// Compute seconds of one (local) op: flops-bound or memory-bound.
double ComputeSeconds(const Operation& op, const DeviceSpec& device) {
  double flops = OpFlops(op);
  if (IsCollective(op.kind())) return 0;
  double bytes = 0;
  for (const Value* operand : op.operands()) {
    if (operand->type().IsTensor()) {
      bytes += static_cast<double>(operand->tensor_type().ByteSize());
    }
  }
  if (op.num_results() == 1 && op.result()->type().IsTensor()) {
    bytes += static_cast<double>(op.result()->tensor_type().ByteSize());
  }
  double flops_time =
      flops / (device.peak_flops * device.compute_efficiency);
  double mem_time = bytes / device.mem_bandwidth;
  return std::max(flops_time, mem_time);
}

}  // namespace

double EstimatePeakMemory(const Func& func) {
  // Live-range analysis over the flat SPMD function (Appendix A.3.2):
  // a value is live from its definition (or function entry, for arguments)
  // until its last use.
  std::map<const Value*, int> last_use;
  int position = 0;
  std::vector<const Operation*> order;
  for (const auto& op : func.body().ops()) {
    order.push_back(op.get());
    for (const Value* operand : op->operands()) {
      last_use[operand] = position;
    }
    ++position;
  }
  auto bytes_of = [](const Value* v) -> double {
    return v->type().IsTensor()
               ? static_cast<double>(v->tensor_type().ByteSize())
               : 0.0;
  };
  double live = 0;
  for (const auto& arg : func.body().args()) live += bytes_of(arg.get());
  double peak = live;
  position = 0;
  for (const Operation* op : order) {
    for (int i = 0; i < op->num_results(); ++i) {
      live += bytes_of(op->result(i));
    }
    peak = std::max(peak, live);
    // Free values whose last use is this op.
    for (const Value* operand : op->operands()) {
      auto it = last_use.find(operand);
      if (it != last_use.end() && it->second == position) {
        live -= bytes_of(operand);
        last_use.erase(it);
      }
    }
    // A result never used (dead) dies immediately.
    for (int i = 0; i < op->num_results(); ++i) {
      if (!last_use.count(op->result(i))) {
        live -= bytes_of(op->result(i));
      }
    }
    ++position;
  }
  return peak;
}

SimEstimate EstimateSpmd(const SpmdModule& spmd, const DeviceSpec& device) {
  SimEstimate estimate;
  const Func& func = *spmd.main();
  WalkOps(func.body(), [&](const Operation& op) {
    estimate.total_flops += OpFlops(op);
    estimate.compute_seconds += ComputeSeconds(op, device);
    double comm = CollectiveSeconds(op, spmd.mesh, device);
    estimate.comm_seconds += comm;
    if (comm > 0 && op.num_operands() == 1) {
      estimate.comm_bytes +=
          static_cast<double>(op.operand(0)->tensor_type().ByteSize());
    }
  });
  // Partial compute/communication overlap (Section 6's collective-matmul
  // style optimizations): assume 30% of communication hides under compute.
  estimate.step_seconds =
      estimate.compute_seconds + 0.7 * estimate.comm_seconds;
  estimate.peak_memory_bytes = EstimatePeakMemory(func);
  return estimate;
}

SimEstimate MeasureOnHardwareModel(const SpmdModule& spmd,
                                   const DeviceSpec& device) {
  // Start from the analytical estimate, then add the effects a backend
  // compiler and real hardware introduce: per-op dispatch overheads,
  // imperfect fusion, and layout passes. The perturbation is deterministic
  // in the program structure so experiments are reproducible.
  SimEstimate measured = EstimateSpmd(spmd, device);
  const Func& func = *spmd.main();
  int64_t op_count = 0;
  uint64_t structure_hash = 1469598103934665603ull;  // FNV offset
  WalkOps(func.body(), [&](const Operation& op) {
    ++op_count;
    structure_hash ^= static_cast<uint64_t>(op.kind()) + op_count;
    structure_hash *= 1099511628211ull;
  });
  // Dispatch overhead: ~0.4us per op (fused kernels amortize most ops).
  double overhead = static_cast<double>(op_count) * 0.4e-6 * 0.2;
  // Deterministic "noise" in [-6%, +10%] from the structure hash.
  double unit = static_cast<double>(structure_hash % 1000) / 1000.0;
  double factor = 0.94 + unit * 0.16;
  measured.compute_seconds = measured.compute_seconds * factor + overhead;
  measured.comm_seconds *= (1.02 + 0.1 * unit);
  measured.step_seconds =
      measured.compute_seconds + 0.7 * measured.comm_seconds;
  // Backends fuse away some temporaries: measured peak is usually a bit
  // below the conservative live-range estimate (Appendix A.3.2 notes the
  // simulator prefers over-estimation).
  measured.peak_memory_bytes *= (0.85 + 0.1 * unit);
  return measured;
}

double Mfu(double model_flops, double step_seconds, int64_t num_devices,
           const DeviceSpec& device) {
  if (step_seconds <= 0) return 0;
  return 100.0 * model_flops / step_seconds /
         (static_cast<double>(num_devices) * device.peak_flops);
}

// ---------------------------------------------------------------------------
// Boundary realization (PartitionOptions::boundary_realization).
// ---------------------------------------------------------------------------

RealizationCost ScoreBoundaryRealization(const PartitionContext& ctx,
                                         const BoundarySite& site) {
  const Operation& op = *site.op;
  OpShardingSpec spec = GetShardingSpec(op);
  const Factor& factor = spec.factors.at(site.factor);
  int64_t k = ctx.mesh().AxisSize(site.axis);
  double frac = static_cast<double>(k - 1) / static_cast<double>(k);
  RealizationCost cost;
  // Gather: each operand participating in the contracting factor is
  // re-assembled in full before the local computation.
  for (int i = 0; i < op.num_operands(); ++i) {
    if (i >= static_cast<int>(factor.operand_dims.size())) break;
    if (factor.operand_dims[i] < 0) continue;
    cost.gather +=
        frac * static_cast<double>(op.operand(i)->tensor_type().ByteSize());
  }
  double result_bytes =
      op.num_results() == 1 && op.result()->type().IsTensor()
          ? static_cast<double>(op.result()->tensor_type().ByteSize())
          : 0;
  cost.reduce = 2 * frac * result_bytes;
  cost.scatter = site.scatter_dim >= 0
                     ? frac * result_bytes
                     : std::numeric_limits<double>::infinity();
  return cost;
}

Realization ChooseBoundaryRealization(PartitionContext& ctx,
                                      BoundarySite& site) {
  const Operation& op = *site.op;
  OpShardingSpec spec = GetShardingSpec(op);
  const Factor& factor = spec.factors.at(site.factor);

  // A contract operand the user explicitly tiled on this axis (a seed, not
  // an inferred tile) expresses intent to compute with partials: the tied
  // embedding of the logits projection, Megatron's row-sharded weights.
  // Those stay all_reduce realizations unconditionally.
  for (int i = 0; i < op.num_operands(); ++i) {
    if (i >= static_cast<int>(factor.operand_dims.size())) break;
    int dim = factor.operand_dims[i];
    if (dim < 0) continue;
    for (const ValueTile& tile : ctx.state(op.operand(i)).tiles) {
      if (tile.axis == site.axis && tile.dim == dim && tile.seeded) {
        return Realization::kReduce;
      }
    }
  }
  // An op already nested under other axes was shaped by earlier tactics
  // (data-parallel batch entries, Megatron head entries): realization
  // choices are reserved for the first axis binding, so combined schedules
  // keep their historical all_reduce placements.
  if (!ctx.nest(&op).empty()) return Realization::kReduce;

  bool second_moment = false;
  if (IsStatisticsReduce(op, &second_moment)) {
    // Normalization / softmax statistics are genuine realization
    // boundaries: the rsqrt (resp. exp) ahead needs the full reduction, and
    // the statistic is small. ScoreBoundaryRealization always favors
    // gathering here (a stat is ~1/d_model the size of its operand, so
    // 2x-ing it via all_reduce still beats nothing, but the *operand* is
    // re-used by the rescale anyway), so tiled partials stop at the
    // statistic and the value is realized. The lowering gathers the
    // operand at each use, like any other redistribution.
    return Realization::kGather;
  }
  if (op.kind() != OpKind::kDot) return Realization::kReduce;
  // Dots: only feature contractions (the operand's innermost dim) are
  // realization boundaries; leading-dim contractions are the data-parallel
  // weight-gradient pattern whose all_reduce is the intended semantics.
  bool innermost = false;
  for (int i = 0; i < op.num_operands(); ++i) {
    if (i >= static_cast<int>(factor.operand_dims.size())) break;
    int dim = factor.operand_dims[i];
    if (dim >= 0 && dim == op.operand(i)->tensor_type().rank() - 1) {
      innermost = true;
    }
  }
  if (!innermost) return Realization::kReduce;

  // Feature-contracting dots. Interior projections (rank >= 4 results:
  // qkv, attention scores/values and their gradients) re-tile their result
  // via reduce_scatter: RS moves half the bytes of an AR of the same
  // result (ScoreBoundaryRealization), and the tile lands where the
  // consumer contracts -- projections fed by a normalization keep the
  // propagator's suggested scatter dim (the widest divisible one, the
  // per-head feature dim), attention-interior dots scatter the rank-2 dim
  // (heads / sequence). Exit projections (rank-3 results: out-proj, FFW
  // down, their gradients) write the residual stream, whose other addend
  // is tiled on d_model; re-tiling them anywhere else just reshards at the
  // add, so they keep the all_reduce realization.
  int64_t result_rank = op.result()->tensor_type().rank();
  if (result_rank < 4) return Realization::kReduce;
  if (!IsNormalizationOutput(op.operand(0))) {
    site.scatter_dim = result_rank - 2;
  }
  if (site.scatter_dim < 0 ||
      op.result()->tensor_type().dims()[site.scatter_dim] %
              ctx.mesh().AxisSize(site.axis) !=
          0) {
    return Realization::kReduce;
  }
  RealizationCost score = ScoreBoundaryRealization(ctx, site);
  return score.scatter <= score.reduce ? Realization::kScatter
                                       : Realization::kReduce;
}

}  // namespace partir
