/**
 * @file
 * Replica-group planning and group-ordered evaluation of the PartIR:HLO
 * collectives (all_gather, all_reduce, reduce_scatter, all_to_all,
 * all_slice).
 *
 * A collective over mesh axes A partitions the devices into *replica
 * groups*: the devices that differ only in their coordinates along A. The
 * sequential reference walker and the compiled executor (sequential or
 * threaded) evaluate a collective one group at a time through
 * EvalGroupCollective, whose reductions and concatenations always follow
 * group-position order — which is what makes them bit-exact with each
 * other and repeated runs bit-stable.
 *
 * Groups and attribute parses are precomputed once per op into a
 * CollectivePlan when the lowered module is built (instead of re-deriving
 * device coordinates per device per Run call, the former hot path).
 */
#ifndef PARTIR_SPMD_COLLECTIVES_H_
#define PARTIR_SPMD_COLLECTIVES_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/interp/tensor.h"
#include "src/ir/ir.h"
#include "src/mesh/mesh.h"
#include "src/support/status.h"

namespace partir {

/**
 * The replica groups of one collective: every device appears in exactly one
 * group; within a group, devices are ordered by their *position* — the
 * linear index of their coordinates along the group axes, first axis major
 * (the order reductions and concatenations use).
 */
struct CollectiveGroups {
  std::vector<std::string> axes;   // group axes, position-major first
  std::vector<int64_t> axis_sizes; // mesh size of each group axis
  int64_t group_size = 1;          // product of axis_sizes

  std::vector<std::vector<int64_t>> groups;  // [group][position] -> device
  std::vector<int64_t> group_of;     // [device] -> group index
  std::vector<int64_t> position_of;  // [device] -> position within group

  /** Index of `axis` within `axes` (checks it is a group axis). */
  int AxisIndex(const std::string& axis) const;

  /** The peer position reached from `position` by replacing the coordinate
   *  along group axis `axis_index` with `coord`. */
  int64_t PositionWithAxisCoord(int64_t position, int axis_index,
                                int64_t coord) const;

  /** Coordinate of `position` along group axis `axis_index`. */
  int64_t CoordOf(int64_t position, int axis_index) const;
};

/** Computes the replica groups of `axes` over `mesh`. */
CollectiveGroups MakeCollectiveGroups(const Mesh& mesh,
                                      const std::vector<std::string>& axes);

/** One (dim, chunk, count) step of a device-local chunk slice. */
struct SliceStep {
  int64_t dim;
  int64_t chunk;
  int64_t count;
};

/**
 * Applies slice steps in order: the same chunk as SliceChunk per step,
 * taken as one box copy of `value`.
 */
Tensor ApplySliceSteps(const Tensor& value,
                       const std::vector<SliceStep>& steps);

/**
 * The precomputed execution plan of one collective op: parsed attributes,
 * shared replica groups, and per-device / per-position slice schedules.
 */
struct CollectiveOp {
  OpKind kind;
  /** Replica groups; null for all_slice (communication-free). */
  std::shared_ptr<const CollectiveGroups> groups;
  AxesPerDim axes_per_dim;  // all_gather / all_slice / reduce_scatter
  bool is_max = false;      // all_reduce / reduce_scatter reduction kind
  int64_t slice_dim = 0;    // all_to_all
  int64_t concat_dim = 0;   // all_to_all
  /** all_slice: this device's chunk of each sliced dim. */
  std::vector<std::vector<SliceStep>> slice_steps_per_device;
  /** reduce_scatter: each group position's chunk of the reduced value. */
  std::vector<std::vector<SliceStep>> slice_steps_per_position;
};

/** Plans for every collective op of a lowered module, keyed by op. */
struct CollectivePlan {
  std::map<const Operation*, CollectiveOp> ops;
};

/** Flattens per-dim axis lists in (dim, list-order) order. */
std::vector<std::string> FlattenAxesPerDim(const AxesPerDim& axes_per_dim);

/**
 * The replica-group mesh axes of a verified collective op, as
 * BuildCollectivePlan would group it (all_slice included: its flattened
 * axes_per_dim, though it is communication-free).
 */
std::vector<std::string> CollectiveGroupAxes(const Operation& op);

/**
 * Builds the plan for every collective in `module`, which must verify over
 * `mesh`. Replica groups are shared between ops with the same group axes.
 */
std::shared_ptr<const CollectivePlan> BuildCollectivePlan(
    const Mesh& mesh, const Module& module);

/**
 * Evaluates one group of a collective: `inputs[p]` is the contribution of
 * the device at group position p, and the result at index p is that
 * device's output. Reductions and concatenations follow position order, so
 * the result is independent of which thread (or walker) evaluates it.
 * `op.kind` must not be kAllSlice (which is device-local).
 */
std::vector<Tensor> EvalGroupCollective(const CollectiveOp& op,
                                        const std::vector<Tensor>& inputs);

}  // namespace partir

#endif  // PARTIR_SPMD_COLLECTIVES_H_
