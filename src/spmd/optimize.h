/**
 * @file
 * SPMD-level collective optimizations (Section 6), as two maskable rewrite
 * families the pipeline runs as separate stages:
 *
 * Gather/slice fusion (kRewriteGatherSlice):
 *   - all_gather + all_slice of the same axes           -> cancel / all_to_all
 *   - all_slice of splat constants / iota               -> local constants
 *   - no-op collectives (empty axes), identity transposes -> removed
 *   - identical all_slice CSE
 *
 * Reduce-scatter formation (kRewriteReduceScatter):
 *   - all_reduce followed by all_slice on reduced axes  -> reduce_scatter
 *     (+ residual all_reduce for reduced-but-unsliced axes, and a residual
 *     all_slice for sliced-but-unreduced axes, the embedding-style chain
 *     across multiple mesh axes)
 *   - adjacent same-reduction all_reduces               -> one multi-axis AR
 *   - add of two identical-axes all_reduce/reduce_scatter partial sums
 *     -> collective of the add (gradient accumulation linearity)
 *   - transpose of a single-use all_reduce commutes inside it
 *
 * plus dead-code elimination. Collective counts (Table 3) and cost estimates
 * are taken after these stages, as in the paper.
 */
#ifndef PARTIR_SPMD_OPTIMIZE_H_
#define PARTIR_SPMD_OPTIMIZE_H_

#include <cstdint>
#include <string>

#include "src/mesh/mesh.h"
#include "src/spmd/lowering.h"

namespace partir {

/** Rewrite families of the SPMD peephole (bitmask). */
inline constexpr unsigned kRewriteGatherSlice = 1u << 0;
inline constexpr unsigned kRewriteReduceScatter = 1u << 1;
inline constexpr unsigned kRewriteAllSpmd =
    kRewriteGatherSlice | kRewriteReduceScatter;

/**
 * One peephole sweep: rewrites `main` in place applying the masked rewrite
 * families and returns the number of rewrites applied (no DCE — run
 * EliminateDeadCode separately). The Module object and every op no rewrite
 * matches (with its nested regions) survive the sweep; the ops a rewrite
 * replaces are deleted, and producers it leaves unused wait for DCE. Drops
 * the module's collective plan and compiled device program.
 */
int64_t RunSpmdPeephole(SpmdModule& spmd, unsigned rewrites);

/**
 * Optimizes the SPMD module in place: all rewrite families plus DCE, to
 * fixpoint. The compiler-internal convenience used by hot paths that bypass
 * the pipeline (one MCTS candidate evaluation lowers and optimizes per
 * simulation); the facade pipeline runs the same rewrites as separate
 * stages. Returns the number of rewrites applied.
 */
int64_t OptimizeSpmd(SpmdModule& spmd);

/** Collective-communication counts of a module (the rows of Table 3). */
struct CollectiveStats {
  int64_t all_gather = 0;
  int64_t all_reduce = 0;
  int64_t reduce_scatter = 0;
  int64_t all_to_all = 0;
  int64_t all_slice = 0;  // communication-free, reported for completeness

  /** Bytes moved per device, using ring-collective cost factors. */
  double comm_bytes = 0;

  std::string ToString() const;
};

/** Counts collectives (and per-device communication bytes) in a module. */
CollectiveStats CountCollectives(const Module& module, const Mesh& mesh);

}  // namespace partir

#endif  // PARTIR_SPMD_OPTIMIZE_H_
