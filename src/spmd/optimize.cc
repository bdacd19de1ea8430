#include "src/spmd/optimize.h"

#include <algorithm>
#include <map>
#include <memory>
#include <sstream>
#include <unordered_map>

#include "src/ir/builder.h"
#include "src/ir/passes.h"
#include "src/spmd/collectives.h"
#include "src/support/str_util.h"

namespace partir {
namespace {

// Flattened (axis -> dim) view of an axes_per_dim attribute.
std::map<std::string, int64_t> AxisDims(const AxesPerDim& axes) {
  std::map<std::string, int64_t> result;
  for (size_t dim = 0; dim < axes.size(); ++dim) {
    for (const std::string& axis : axes[dim]) {
      result[axis] = static_cast<int64_t>(dim);
    }
  }
  return result;
}

bool AllEmpty(const AxesPerDim& axes) {
  for (const auto& list : axes) {
    if (!list.empty()) return false;
  }
  return true;
}

bool AxesDisjoint(const std::vector<std::string>& a,
                  const std::vector<std::string>& b) {
  for (const std::string& axis : b) {
    if (std::find(a.begin(), a.end(), axis) != a.end()) return false;
  }
  return true;
}

// Rewrites `main` in place applying the enabled peephole rewrites; returns
// the rewrite count. The sweep moves the body's ops out and re-appends each
// op no rewrite matches (without copying it), appending the ops a rewrite
// builds in place of the op it replaces. The use counts are taken when the
// sweep starts, so every match reads the def chains as they were then too:
// replaced ops stay alive, and operands are rewired through the value map
// only once the sweep is done — including operands inside nested regions,
// which the sweep keeps intact.
class Peephole {
 public:
  Peephole(SpmdModule& spmd, unsigned rewrites)
      : spmd_(spmd), enabled_(rewrites) {}

  int64_t RunOnce() {
    Func* func = spmd_.mutable_main();  // drops any collective plan
    Block& body = func->body();
    uses_ = CountUses(*func);
    builder_.SetInsertionBlock(&body);
    builder_.SetMesh(&spmd_.mesh);
    rewrites_ = 0;
    map_.clear();
    slice_cse_.clear();
    std::vector<std::unique_ptr<Operation>> replaced;
    for (std::unique_ptr<Operation>& op : body.TakeOps()) {
      if (VisitOp(*op)) {
        replaced.push_back(std::move(op));
      } else {
        body.Append(std::move(op));
      }
    }
    WalkOps(body, [this](Operation& op) {
      for (int i = 0; i < op.num_operands(); ++i) {
        auto it = map_.find(op.operand(i));
        if (it != map_.end()) op.set_operand(i, it->second);
      }
    });
    return rewrites_;
  }

 private:
  bool Enabled(unsigned mask) const { return (enabled_ & mask) != 0; }

  // The value `value` stands for after the sweep: the replacement of a
  // rewritten op's result, else the value itself.
  Value* Mapped(Value* value) const {
    auto it = map_.find(value);
    return it == map_.end() ? value : it->second;
  }

  std::string SliceKey(const Operation& op) {
    std::ostringstream key;
    key << Mapped(op.operand(0));
    for (const auto& list : op.attrs().Get<AxesPerDim>("axes_per_dim")) {
      key << "|";
      for (const std::string& axis : list) key << axis << ",";
    }
    return key.str();
  }

  // Applies the first enabled rewrite matching `op`; returns true if one
  // did, with the op's result mapped to its replacement.
  bool VisitOp(const Operation& op) {
    switch (op.kind()) {
      case OpKind::kAllSlice: {
        if (!Enabled(kRewriteGatherSlice)) return RewriteAllSlice(op);
        // CSE identical slices: all_slice is communication-free and local,
        // so sharing one shard among uses changes neither collective counts
        // nor peak memory (unlike all_gather, which is deliberately
        // per-use, Design decision #4).
        std::string key = SliceKey(op);
        auto seen = slice_cse_.find(key);
        if (seen != slice_cse_.end()) {
          map_[op.result()] = seen->second;
          ++rewrites_;
          return true;
        }
        bool rewritten = RewriteAllSlice(op);
        slice_cse_[key] = Mapped(op.result());
        return rewritten;
      }
      case OpKind::kAllGather:
        return Enabled(kRewriteGatherSlice) && RewriteAllGather(op);
      case OpKind::kAllReduce:
        // No-op removal belongs to the gather/slice family with the other
        // empty-axes collectives; merging is reduce-scatter formation.
        if (Enabled(kRewriteGatherSlice) &&
            op.attrs().Get<std::vector<std::string>>("axes").empty()) {
          map_[op.result()] = Mapped(op.operand(0));
          ++rewrites_;
          return true;
        }
        return Enabled(kRewriteReduceScatter) && RewriteAllReduce(op);
      case OpKind::kAdd:
        return Enabled(kRewriteReduceScatter) && RewriteAddOfAllReduces(op);
      case OpKind::kTranspose:
        return RewriteTranspose(op);
      default:
        return false;
    }
  }

  // Merges adjacent same-reduction all_reduces into one multi-axis
  // all_reduce — the normal form the reduce-scatter formation below
  // matches embedding-style multi-axis chains against.
  bool RewriteAllReduce(const Operation& op) {
    const auto& axes = op.attrs().Get<std::vector<std::string>>("axes");
    const Operation* def = op.operand(0)->def();
    if (def != nullptr && def->kind() == OpKind::kAllReduce &&
        uses_[def->result()] == 1 &&
        def->attrs().Get<std::string>("reduction") ==
            op.attrs().Get<std::string>("reduction") &&
        AxesDisjoint(def->attrs().Get<std::vector<std::string>>("axes"),
                     axes)) {
      // Disjointness matters: re-reducing an already-reduced axis is not a
      // no-op for "sum" (it would scale by the group size again).
      std::vector<std::string> merged =
          def->attrs().Get<std::vector<std::string>>("axes");
      merged.insert(merged.end(), axes.begin(), axes.end());
      map_[op.result()] = builder_.AllReduce(
          Mapped(def->operand(0)), merged,
          op.attrs().Get<std::string>("reduction"));
      ++rewrites_;
      return true;
    }
    return false;
  }

  // transpose with the identity permutation -> operand; transpose of a
  // single-use all_reduce commutes inside it (enables AR-sum fusion across
  // the transposes that dot VJPs emit).
  bool RewriteTranspose(const Operation& op) {
    const auto& perm = op.attrs().Get<std::vector<int64_t>>("perm");
    bool identity = true;
    for (size_t i = 0; i < perm.size(); ++i) {
      if (perm[i] != static_cast<int64_t>(i)) identity = false;
    }
    if (identity && Enabled(kRewriteGatherSlice)) {
      map_[op.result()] = Mapped(op.operand(0));
      ++rewrites_;
      return true;
    }
    if (!Enabled(kRewriteReduceScatter)) return false;
    const Operation* def = op.operand(0)->def();
    if (def != nullptr && def->kind() == OpKind::kAllReduce &&
        uses_[def->result()] == 1) {
      Operation* transpose = builder_.Create(
          OpKind::kTranspose, {Mapped(def->operand(0))},
          {op.result()->type()});
      transpose->attrs().Set("perm", perm);
      map_[op.result()] = builder_.AllReduce(
          transpose->result(),
          def->attrs().Get<std::vector<std::string>>("axes"),
          def->attrs().Get<std::string>("reduction"));
      ++rewrites_;
      return true;
    }
    return false;
  }

  // add(all_reduce(x), all_reduce(y)) over the same axes (sum) and with no
  // other uses -> all_reduce(add(x, y)). This linearity rewrite is what
  // backend compilers apply to gradient accumulation; it is required for
  // Megatron's backward pass to cost exactly 2 extra AllReduces per layer
  // (the paper's "4 AR per layer" for forward+backward, Section 7.3).
  bool RewriteAddOfAllReduces(const Operation& op) {
    const Operation* a = op.operand(0)->def();
    const Operation* b = op.operand(1)->def();
    if (a == nullptr || b == nullptr) return false;
    if (a->kind() != b->kind()) return false;
    if (uses_[a->result()] != 1 || uses_[b->result()] != 1) return false;
    if (a->kind() == OpKind::kAllReduce) {
      const auto& axes_a = a->attrs().Get<std::vector<std::string>>("axes");
      const auto& axes_b = b->attrs().Get<std::vector<std::string>>("axes");
      if (axes_a != axes_b) return false;
      if (a->attrs().Get<std::string>("reduction") != "sum" ||
          b->attrs().Get<std::string>("reduction") != "sum") {
        return false;
      }
      Value* sum =
          builder_.Add(Mapped(a->operand(0)), Mapped(b->operand(0)));
      map_[op.result()] = builder_.AllReduce(sum, axes_a, "sum");
      ++rewrites_;
      return true;
    }
    if (a->kind() == OpKind::kReduceScatter) {
      // Same linearity rewrite for reduce_scatter partial sums.
      const auto& axes_a = a->attrs().Get<AxesPerDim>("axes_per_dim");
      const auto& axes_b = b->attrs().Get<AxesPerDim>("axes_per_dim");
      if (axes_a != axes_b) return false;
      if (a->attrs().Get<std::string>("reduction") != "sum" ||
          b->attrs().Get<std::string>("reduction") != "sum") {
        return false;
      }
      Value* sum =
          builder_.Add(Mapped(a->operand(0)), Mapped(b->operand(0)));
      map_[op.result()] = builder_.ReduceScatter(sum, axes_a, "sum");
      ++rewrites_;
      return true;
    }
    return false;
  }

  bool RewriteAllSlice(const Operation& op) {
    const auto& slice_axes = op.attrs().Get<AxesPerDim>("axes_per_dim");
    if (AllEmpty(slice_axes)) {
      if (!Enabled(kRewriteGatherSlice)) return false;
      map_[op.result()] = Mapped(op.operand(0));
      ++rewrites_;
      return true;
    }
    const Operation* def = op.operand(0)->def();
    // Pattern: all_slice(all_reduce(y)) -> reduce_scatter over the sliced
    // axes that are among the reduced axes, plus a residual all_reduce for
    // reduced-but-unsliced axes. The embedding-style multi-axis chain — an
    // all_slice that also re-tiles axes the all_reduce never reduced (e.g.
    // a gradient reduced over the batch axes but sliced to a parameter
    // sharded over batch *and* model) — additionally keeps a residual
    // all_slice for those axes.
    if (def != nullptr && def->kind() == OpKind::kAllReduce &&
        Enabled(kRewriteReduceScatter)) {
      auto reduce_axes = def->attrs().Get<std::vector<std::string>>("axes");
      const std::string& reduction =
          def->attrs().Get<std::string>("reduction");
      // Fold a chain of single-use, same-reduction, disjoint-axes
      // all_reduces feeding the slice into one multi-axis match (the
      // embedding-style chain across multiple mesh axes arrives as nested
      // per-axis reduces).
      const Operation* innermost = def;
      while (true) {
        const Operation* next = innermost->operand(0)->def();
        if (next == nullptr || next->kind() != OpKind::kAllReduce ||
            uses_[innermost->operand(0)] != 1 ||
            next->attrs().Get<std::string>("reduction") != reduction ||
            !AxesDisjoint(
                reduce_axes,
                next->attrs().Get<std::vector<std::string>>("axes"))) {
          break;
        }
        const auto& inner_axes =
            next->attrs().Get<std::vector<std::string>>("axes");
        reduce_axes.insert(reduce_axes.end(), inner_axes.begin(),
                           inner_axes.end());
        innermost = next;
      }
      std::map<std::string, int64_t> sliced = AxisDims(slice_axes);
      std::map<std::string, int64_t> outside;  // sliced but not reduced
      for (const auto& [axis, dim] : sliced) {
        if (std::find(reduce_axes.begin(), reduce_axes.end(), axis) ==
            reduce_axes.end()) {
          outside[axis] = dim;
        }
      }
      const bool scatterable = static_cast<int64_t>(outside.size()) <
                               static_cast<int64_t>(sliced.size());
      if (scatterable) {
        Value* y = Mapped(innermost->operand(0));
        // Keep the attribute's per-dim axis order (it encodes the nested
        // tiling order of the shard layout).
        AxesPerDim scatter(slice_axes.size());
        for (size_t dim = 0; dim < slice_axes.size(); ++dim) {
          for (const std::string& axis : slice_axes[dim]) {
            if (!outside.count(axis)) scatter[dim].push_back(axis);
          }
        }
        Value* rs = builder_.ReduceScatter(y, scatter, reduction);
        std::vector<std::string> leftover;  // reduced but not sliced
        for (const std::string& axis : reduce_axes) {
          if (!sliced.count(axis)) leftover.push_back(axis);
        }
        if (!leftover.empty()) {
          rs = builder_.AllReduce(rs, leftover, reduction);
        }
        if (!outside.empty()) {
          AxesPerDim residual(rs->tensor_type().rank());
          for (size_t dim = 0; dim < slice_axes.size(); ++dim) {
            for (const std::string& axis : slice_axes[dim]) {
              if (outside.count(axis)) residual[dim].push_back(axis);
            }
          }
          rs = builder_.AllSlice(rs, residual);
        }
        map_[op.result()] = rs;
        ++rewrites_;
        return true;
      }
    }
    if (!Enabled(kRewriteGatherSlice)) return false;
    // Pattern: all_slice(all_gather(y)): cancel matching axes; axes present
    // in both on different dims become all_to_all.
    if (def != nullptr && def->kind() == OpKind::kAllGather) {
      auto gather = AxisDims(def->attrs().Get<AxesPerDim>("axes_per_dim"));
      auto slice = AxisDims(slice_axes);
      std::vector<std::string> cancel;
      std::vector<std::string> moved;
      for (const auto& [axis, dim] : slice) {
        auto it = gather.find(axis);
        if (it == gather.end()) continue;
        (it->second == dim ? cancel : moved).push_back(axis);
      }
      if (!cancel.empty() || !moved.empty()) {
        Value* y = Mapped(def->operand(0));
        int rank = y->tensor_type().rank();
        // Axes moving dims: all_to_all directly on y.
        for (const std::string& axis : moved) {
          y = builder_.AllToAll(y, /*slice_dim=*/slice[axis],
                                /*concat_dim=*/gather[axis], {axis});
        }
        // Residual gather (gathered axes not re-sliced).
        AxesPerDim residual_gather(rank);
        bool any_gather = false;
        for (const auto& [axis, dim] : gather) {
          if (slice.count(axis)) continue;
          residual_gather[dim].push_back(axis);
          any_gather = true;
        }
        if (any_gather) y = builder_.AllGather(y, residual_gather);
        // Residual slice (sliced axes that were not gathered).
        AxesPerDim residual_slice(y->tensor_type().rank());
        bool any_slice = false;
        for (const auto& [axis, dim] : slice) {
          if (gather.count(axis)) continue;
          residual_slice[dim].push_back(axis);
          any_slice = true;
        }
        if (any_slice) y = builder_.AllSlice(y, residual_slice);
        map_[op.result()] = y;
        ++rewrites_;
        return true;
      }
    }
    // Pattern: all_slice(splat constant | iota) -> local constant.
    if (def != nullptr && def->kind() == OpKind::kConstant &&
        def->attrs().Has("splat")) {
      Value* local = builder_.Constant(
          def->attrs().Get<double>("splat"),
          op.result()->tensor_type().dims(),
          op.result()->tensor_type().dtype());
      map_[op.result()] = local;
      ++rewrites_;
      return true;
    }
    if (def != nullptr && def->kind() == OpKind::kIota) {
      int64_t iota_dim = def->attrs().Get<int64_t>("dim");
      if (slice_axes[iota_dim].empty()) {
        Value* local = builder_.Iota(op.result()->tensor_type().dims(),
                                     iota_dim,
                                     op.result()->tensor_type().dtype());
        map_[op.result()] = local;
        ++rewrites_;
        return true;
      }
    }
    return false;
  }

  bool RewriteAllGather(const Operation& op) {
    const auto& gather_axes = op.attrs().Get<AxesPerDim>("axes_per_dim");
    if (AllEmpty(gather_axes)) {
      map_[op.result()] = Mapped(op.operand(0));
      ++rewrites_;
      return true;
    }
    const Operation* def = op.operand(0)->def();
    // Pattern: all_gather(all_slice(y)) with identical axes/dims -> y.
    if (def != nullptr && def->kind() == OpKind::kAllSlice) {
      auto slice = AxisDims(def->attrs().Get<AxesPerDim>("axes_per_dim"));
      auto gather = AxisDims(gather_axes);
      if (slice == gather) {
        map_[op.result()] = Mapped(def->operand(0));
        ++rewrites_;
        return true;
      }
    }
    return false;
  }

  SpmdModule& spmd_;
  unsigned enabled_;
  OpBuilder builder_{nullptr};
  std::unordered_map<const Value*, Value*> map_;
  UseCounts uses_;
  std::map<std::string, Value*> slice_cse_;
  int64_t rewrites_ = 0;
};

}  // namespace

int64_t RunSpmdPeephole(SpmdModule& spmd, unsigned rewrites) {
  return Peephole(spmd, rewrites).RunOnce();
}

int64_t OptimizeSpmd(SpmdModule& spmd) {
  int64_t total = 0;
  for (int iteration = 0; iteration < 8; ++iteration) {
    int64_t rewrites = RunSpmdPeephole(spmd, kRewriteAllSpmd);
    EliminateDeadCode(*spmd.mutable_main());
    total += rewrites;
    if (rewrites == 0) break;
  }
  return total;
}

std::string CollectiveStats::ToString() const {
  return StrCat("AG=", all_gather, " AR=", all_reduce, " RS=", reduce_scatter,
                " A2A=", all_to_all);
}

CollectiveStats CountCollectives(const Module& module, const Mesh& mesh) {
  CollectiveStats stats;
  for (const auto& func : module.funcs()) {
    WalkOps(func->body(), [&](const Operation& op) {
      switch (op.kind()) {
        case OpKind::kAllGather:
          ++stats.all_gather;
          break;
        case OpKind::kAllReduce:
          ++stats.all_reduce;
          break;
        case OpKind::kReduceScatter:
          ++stats.reduce_scatter;
          break;
        case OpKind::kAllToAll:
          ++stats.all_to_all;
          break;
        case OpKind::kAllSlice:
          ++stats.all_slice;
          return;
        default:
          return;
      }
      stats.comm_bytes += RingBytes(op, mesh);
    });
  }
  return stats;
}

}  // namespace partir
