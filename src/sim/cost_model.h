/**
 * @file
 * Analytical cost model and simulator (paper Appendix A.3): walks the
 * device-local SPMD program, tracking per-op FLOPs, collective byte
 * transfers, and live memory, and estimates step time, peak HBM and MFU
 * against a device spec. A separate "hardware model" adds deterministic
 * per-op overheads and stands in for real measurements (Figures 9-10):
 * the paper measures on TPUs, and this reproduction substitutes a
 * perturbed simulation because it runs without accelerators.
 */
#ifndef PARTIR_SIM_COST_MODEL_H_
#define PARTIR_SIM_COST_MODEL_H_

#include <string>

#include "src/ir/ir.h"
#include "src/mesh/mesh.h"
#include "src/sim/device_spec.h"
#include "src/spmd/lowering.h"

namespace partir {

/** Simulator output for one program on one device spec. */
struct SimEstimate {
  double compute_seconds = 0;
  double comm_seconds = 0;
  double step_seconds = 0;     // max-overlap combination
  double peak_memory_bytes = 0;
  double total_flops = 0;      // per-device
  double comm_bytes = 0;       // per-device

  std::string ToString() const;
};

/** FLOPs of a single operation at its (local) shapes. */
double OpFlops(const Operation& op);

/** Total FLOPs of a function (e.g. the unpartitioned model step). */
double FuncFlops(const Func& func);

/** Analytical estimate for a device-local SPMD program. */
SimEstimate EstimateSpmd(const SpmdModule& spmd, const DeviceSpec& device);

/**
 * The "hardware" stand-in: the analytical estimate perturbed by
 * deterministic per-op overheads and backend effects, used as the
 * measurement side of Figures 9-10.
 */
SimEstimate MeasureOnHardwareModel(const SpmdModule& spmd,
                                   const DeviceSpec& device);

/**
 * Model FLOPs Utilization (Appendix A.1):
 *   100 * model_flops / step_time / (num_devices * peak_flops).
 */
double Mfu(double model_flops, double step_seconds, int64_t num_devices,
           const DeviceSpec& device);

/** Peak live memory (bytes) of a function via live-range analysis. */
double EstimatePeakMemory(const Func& func);

/**
 * Per-realization communication cost of one contracting boundary step
 * (PartitionContext::SetRealizationPolicy), in bytes moved per device under
 * the standard ring-collective model over the k-way mesh axis:
 *   gather  = sum over contract-tiled operands of (k-1)/k * full bytes
 *   reduce  = 2 (k-1)/k * result bytes   (reduce-scatter + all-gather)
 *   scatter = (k-1)/k * result bytes     (infinity when no result dim
 *                                         divides the axis)
 */
struct RealizationCost {
  double gather = 0;
  double reduce = 0;
  double scatter = 0;
};

/** Scores realizing `site` each way; purely analytical, no IR mutation. */
RealizationCost ScoreBoundaryRealization(const PartitionContext& ctx,
                                         const BoundarySite& site);

/**
 * The default realization policy the Propagate pass installs when
 * PartitionOptions::boundary_realization is on: classifies the boundary
 * (normalization statistics vs. the projections they feed vs. everything
 * else) and picks the realization ScoreBoundaryRealization favors among the
 * ones structurally admissible for that class. May pin the site's result
 * atomic (ctx.AtomicValue) to stop downstream re-tiling through a gathered
 * boundary.
 */
Realization ChooseBoundaryRealization(PartitionContext& ctx,
                                      BoundarySite& site);

}  // namespace partir

#endif  // PARTIR_SIM_COST_MODEL_H_
