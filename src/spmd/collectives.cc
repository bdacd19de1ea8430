#include "src/spmd/collectives.h"

#include <algorithm>

namespace partir {

int CollectiveGroups::AxisIndex(const std::string& axis) const {
  for (size_t i = 0; i < axes.size(); ++i) {
    if (axes[i] == axis) return static_cast<int>(i);
  }
  PARTIR_CHECK(false) << "'" << axis << "' is not a group axis";
  return -1;
}

int64_t CollectiveGroups::PositionWithAxisCoord(int64_t position,
                                                int axis_index,
                                                int64_t coord) const {
  int64_t stride = 1;
  for (int i = static_cast<int>(axes.size()) - 1; i > axis_index; --i) {
    stride *= axis_sizes[i];
  }
  int64_t current = (position / stride) % axis_sizes[axis_index];
  return position + (coord - current) * stride;
}

int64_t CollectiveGroups::CoordOf(int64_t position, int axis_index) const {
  int64_t stride = 1;
  for (int i = static_cast<int>(axes.size()) - 1; i > axis_index; --i) {
    stride *= axis_sizes[i];
  }
  return (position / stride) % axis_sizes[axis_index];
}

CollectiveGroups MakeCollectiveGroups(const Mesh& mesh,
                                      const std::vector<std::string>& axes) {
  CollectiveGroups out;
  out.axes = axes;
  for (const std::string& axis : axes) {
    out.axis_sizes.push_back(mesh.AxisSize(axis));
    out.group_size *= out.axis_sizes.back();
  }
  int64_t num_devices = mesh.NumDevices();
  out.group_of.resize(num_devices);
  out.position_of.resize(num_devices);

  std::vector<bool> is_group_axis(mesh.num_axes(), false);
  for (const std::string& axis : axes) {
    is_group_axis[mesh.AxisIndex(axis)] = true;
  }
  // Key a device's group by its coordinates along the non-group axes.
  std::map<std::vector<int64_t>, int64_t> group_index;
  for (int64_t d = 0; d < num_devices; ++d) {
    std::vector<int64_t> coords = mesh.Coordinates(d);
    int64_t position = 0;
    for (size_t i = 0; i < axes.size(); ++i) {
      position = position * out.axis_sizes[i] +
                 coords[mesh.AxisIndex(axes[i])];
    }
    std::vector<int64_t> rest;
    for (int i = 0; i < mesh.num_axes(); ++i) {
      if (!is_group_axis[i]) rest.push_back(coords[i]);
    }
    auto [it, inserted] =
        group_index.emplace(std::move(rest), static_cast<int64_t>(out.groups.size()));
    if (inserted) out.groups.emplace_back(out.group_size, -1);
    out.groups[it->second][position] = d;
    out.group_of[d] = it->second;
    out.position_of[d] = position;
  }
  return out;
}

Tensor ApplySliceSteps(const Tensor& value,
                       const std::vector<SliceStep>& steps) {
  if (steps.empty()) return value;
  // Successive chunks compose into one box of the input.
  std::vector<int64_t> start(value.rank(), 0);
  std::vector<int64_t> extent = value.dims();
  for (const SliceStep& step : steps) {
    PARTIR_CHECK(extent.at(step.dim) % step.count == 0)
        << "chunk count must divide dim";
    PARTIR_CHECK(step.chunk >= 0 && step.chunk < step.count);
    extent[step.dim] /= step.count;
    start[step.dim] += step.chunk * extent[step.dim];
  }
  Tensor out(extent);
  CopyBox(value, start, extent, out, std::vector<int64_t>(value.rank(), 0));
  return out;
}

std::vector<std::string> FlattenAxesPerDim(const AxesPerDim& axes_per_dim) {
  std::vector<std::string> flat;
  for (const auto& list : axes_per_dim) {
    flat.insert(flat.end(), list.begin(), list.end());
  }
  return flat;
}

namespace {

/** This device's (dim, chunk, count) steps for an all_slice-style slice. */
std::vector<SliceStep> SliceStepsForCoords(
    const AxesPerDim& axes_per_dim, const Mesh& mesh,
    const std::vector<int64_t>& coords) {
  std::vector<SliceStep> steps;
  for (size_t dim = 0; dim < axes_per_dim.size(); ++dim) {
    for (const std::string& axis : axes_per_dim[dim]) {
      steps.push_back(SliceStep{static_cast<int64_t>(dim),
                                coords[mesh.AxisIndex(axis)],
                                mesh.AxisSize(axis)});
    }
  }
  return steps;
}

}  // namespace

std::shared_ptr<const CollectivePlan> BuildCollectivePlan(
    const Mesh& mesh, const Module& module) {
  auto plan = std::make_shared<CollectivePlan>();
  // Ops with the same group axes share one CollectiveGroups instance.
  std::map<std::vector<std::string>, std::shared_ptr<const CollectiveGroups>>
      groups_cache;
  auto groups_for = [&](const std::vector<std::string>& axes) {
    auto it = groups_cache.find(axes);
    if (it == groups_cache.end()) {
      it = groups_cache
               .emplace(axes, std::make_shared<CollectiveGroups>(
                                  MakeCollectiveGroups(mesh, axes)))
               .first;
    }
    return it->second;
  };

  for (const auto& func : module.funcs()) {
    WalkOps(func->body(), [&](const Operation& op) {
      if (!IsCollective(op.kind())) return;
      CollectiveOp col;
      col.kind = op.kind();
      if (const auto* axes = op.attrs().Find<AxesPerDim>("axes_per_dim")) {
        col.axes_per_dim = *axes;
      }
      if (const auto* reduction = op.attrs().Find<std::string>("reduction")) {
        col.is_max = *reduction == "max";
      }
      if (op.kind() == OpKind::kAllSlice) {
        for (int64_t d = 0; d < mesh.NumDevices(); ++d) {
          col.slice_steps_per_device.push_back(SliceStepsForCoords(
              col.axes_per_dim, mesh, mesh.Coordinates(d)));
        }
      } else {
        col.groups = groups_for(CollectiveGroupAxes(op));
      }
      if (op.kind() == OpKind::kReduceScatter) {
        // Each position's chunk of the reduced value: its coordinates
        // along the group axes, in the listed (outer-first) order.
        for (int64_t p = 0; p < col.groups->group_size; ++p) {
          std::vector<SliceStep> steps;
          for (size_t dim = 0; dim < col.axes_per_dim.size(); ++dim) {
            for (const std::string& axis : col.axes_per_dim[dim]) {
              int axis_index = col.groups->AxisIndex(axis);
              steps.push_back(SliceStep{static_cast<int64_t>(dim),
                                        col.groups->CoordOf(p, axis_index),
                                        col.groups->axis_sizes[axis_index]});
            }
          }
          col.slice_steps_per_position.push_back(std::move(steps));
        }
      }
      if (op.kind() == OpKind::kAllToAll) {
        col.slice_dim = op.attrs().Get<int64_t>("slice_dim");
        col.concat_dim = op.attrs().Get<int64_t>("concat_dim");
      }
      plan->ops.emplace(&op, std::move(col));
    });
  }
  return plan;
}

std::vector<std::string> CollectiveGroupAxes(const Operation& op) {
  if (const auto* axes = op.attrs().Find<AxesPerDim>("axes_per_dim")) {
    return FlattenAxesPerDim(*axes);
  }
  return op.attrs().Get<std::vector<std::string>>("axes");
}

namespace {

/** Elementwise combine of the reduction kind (sum or max). */
Tensor CombineReduce(bool is_max, const Tensor& a, const Tensor& b) {
  return Tensor::Combine(a, b, [is_max](float x, float y) {
    return is_max ? std::max(x, y) : x + y;
  });
}

/** Splits a group-reduced tensor into reduce_scatter's per-position
 *  shards. */
std::vector<Tensor> ScatterReduced(const CollectiveOp& op,
                                   const Tensor& reduced) {
  std::vector<Tensor> out;
  out.reserve(op.slice_steps_per_position.size());
  for (const auto& steps : op.slice_steps_per_position) {
    out.push_back(ApplySliceSteps(reduced, steps));
  }
  return out;
}

/** Reduces group inputs in position order. */
Tensor ReduceInPositionOrder(bool is_max, const std::vector<Tensor>& inputs) {
  Tensor acc = inputs[0];
  for (size_t p = 1; p < inputs.size(); ++p) {
    acc = CombineReduce(is_max, acc, inputs[p]);
  }
  return acc;
}

/**
 * All-gather within one group: for each dim (innermost listed axis first,
 * so the first-listed axis ends up outermost), every position's tensor is
 * replaced by the position-ordered concatenation of its peers along that
 * axis.
 */
std::vector<Tensor> GatherGroup(const CollectiveOp& op,
                                const std::vector<Tensor>& inputs) {
  const CollectiveGroups& groups = *op.groups;
  std::vector<Tensor> current = inputs;
  for (size_t dim = 0; dim < op.axes_per_dim.size(); ++dim) {
    const auto& dim_axes = op.axes_per_dim[dim];
    for (auto it = dim_axes.rbegin(); it != dim_axes.rend(); ++it) {
      int axis_index = groups.AxisIndex(*it);
      int64_t n = groups.axis_sizes[axis_index];
      std::vector<Tensor> next(current.size());
      for (size_t p = 0; p < current.size(); ++p) {
        std::vector<Tensor> chunks;
        chunks.reserve(n);
        for (int64_t j = 0; j < n; ++j) {
          chunks.push_back(current[groups.PositionWithAxisCoord(
              static_cast<int64_t>(p), axis_index, j)]);
        }
        next[p] = Tensor::Concat(chunks, static_cast<int64_t>(dim));
      }
      current = std::move(next);
    }
  }
  return current;
}

}  // namespace

std::vector<Tensor> EvalGroupCollective(const CollectiveOp& op,
                                        const std::vector<Tensor>& inputs) {
  const int64_t n = op.groups->group_size;
  PARTIR_CHECK(static_cast<int64_t>(inputs.size()) == n)
      << "group input count mismatch";
  switch (op.kind) {
    case OpKind::kAllGather:
      return GatherGroup(op, inputs);
    case OpKind::kAllReduce: {
      Tensor reduced = ReduceInPositionOrder(op.is_max, inputs);
      return std::vector<Tensor>(n, reduced);
    }
    case OpKind::kReduceScatter:
      return ScatterReduced(op, ReduceInPositionOrder(op.is_max, inputs));
    case OpKind::kAllToAll: {
      std::vector<Tensor> out(n);
      for (int64_t p = 0; p < n; ++p) {
        std::vector<Tensor> chunks;
        chunks.reserve(n);
        for (int64_t j = 0; j < n; ++j) {
          chunks.push_back(inputs[j].SliceChunk(op.slice_dim, p, n));
        }
        out[p] = Tensor::Concat(chunks, op.concat_dim);
      }
      return out;
    }
    default:
      PARTIR_UNREACHABLE("not a rendezvous collective");
  }
}

}  // namespace partir
