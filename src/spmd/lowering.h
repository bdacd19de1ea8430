/**
 * @file
 * Lowering from PartIR:Core partitioning state to a device-local SPMD module
 * with PartIR:HLO mesh-axis collectives (Section 6 / Appendix C).
 *
 * The translation follows Appendix C's scheme: function arguments become
 * device-local shards; each operation executes on local shapes, with
 * device-local attributes (a static_slice's bounds, CopyLocalAttrs), so the
 * module verifies over its mesh like any other IR; slices of
 * replicated values become (communication-free) all_slice ops; #sum loop
 * axes become all_reduce; and whenever a value's realized placement differs
 * from the placement a use requires, a *redistribution* is inserted —
 * all_gather, all_slice, or all_to_all. Redistributions are emitted per use
 * site, which is what yields FSDP's re-gather in forward and backward passes
 * and its peak-memory savings. The one shared redistribution is the full
 * gather of a scatter-realized gradient value: uses within a short op window
 * reuse it instead of gathering again.
 *
 * The device-local module is flat: local ops and collectives ending in a
 * return. Tactic loops are partitioning state here, never ops, so the
 * traced function must be loop-free; the loop nests of the paper's
 * PartIR:Core exist only in the printed loop form (Executable::Print).
 */
#ifndef PARTIR_SPMD_LOWERING_H_
#define PARTIR_SPMD_LOWERING_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/core/context.h"
#include "src/ir/ir.h"
#include "src/mesh/mesh.h"
#include "src/support/status.h"

namespace partir {

struct CollectivePlan;
namespace exec {
struct DeviceProgram;
}

/** Sharding of one function input/output: axes per dimension. */
struct ValueSharding {
  AxesPerDim axes;
  std::string ToString() const;
};

/** Result of SPMD lowering. */
struct SpmdModule {
  std::unique_ptr<Module> module;  // device-local program
  Mesh mesh;
  std::vector<ValueSharding> input_shardings;
  std::vector<ValueSharding> output_shardings;

  /**
   * Precomputed replica groups and attribute parses for every collective op
   * (collectives.h), built once after collective optimization so RunSpmd
   * does not re-derive device coordinates per call. Null until planned (or
   * after the module is handed out mutably); RunSpmd then builds one ad
   * hoc.
   */
  std::shared_ptr<const CollectivePlan> plan;

  /**
   * The compiled flat instruction stream + arena plan of the device-local
   * program (src/exec/device_program.h), built by the
   * compile-device-programs pipeline pass; null until compiled, and
   * dropped together with `plan` on any mutable access. Null is always
   * safe: a compiled-backend Run compiles one ad hoc.
   */
  std::shared_ptr<const exec::DeviceProgram> exec_program;

  Func* main() const { return module->main(); }

  /**
   * All mutable access to the lowered module goes through these helpers,
   * which drop the precomputed collective plan: a pass (or backend) that
   * rewrites the module can never leave a stale plan behind for the next
   * Run to walk into.
   */
  Module& mutable_module() {
    InvalidatePlan();
    return *module;
  }
  Func* mutable_main() {
    InvalidatePlan();
    return module->main();
  }
  void InvalidatePlan() {
    plan.reset();
    exec_program.reset();
  }
};

/**
 * Lowers the context's function to a device-local SPMD module. The returned
 * module is unoptimized; run OptimizeSpmd (optimize.h) before counting
 * collectives or estimating cost. Returns a typed error (instead of
 * aborting) when the context is not lowerable: empty mesh, an unterminated
 * function body, a traced function holding a PartIR:Core loop, slice or
 * yield op (kInvalidArgument), or partitioning state whose tiles do not
 * divide the value dims they shard.
 */
StatusOr<SpmdModule> LowerToSpmdOrError(const PartitionContext& ctx);

/**
 * Unchecked form of LowerToSpmdOrError: no validation pass, internal
 * invariants abort on violation. The compiler-internal hot path (the MCTS
 * search lowers once per candidate evaluation); facade code should prefer
 * LowerToSpmdOrError.
 */
SpmdModule LowerToSpmd(const PartitionContext& ctx);

/** Converts an ordered tile list into per-dimension axes lists. */
AxesPerDim TilesToAxesPerDim(const std::vector<ValueTile>& tiles, int rank);

/**
 * Checks the shardings `spmd` records for its verified module: one per
 * main argument and per result, each a tensor's, listing only mesh axes
 * and, unless the value is replicated (no dims listed), one list per dim.
 * Calls `error(where, message)` per finding; a lowered module has none.
 */
void VerifyShardings(
    const SpmdModule& spmd,
    const std::function<void(const std::string& where,
                             const std::string& message)>& error);

}  // namespace partir

#endif  // PARTIR_SPMD_LOWERING_H_
