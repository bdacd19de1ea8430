/**
 * @file
 * Pipeline observability types: per-stage statistics (wall-clock,
 * op-deltas, rewrite counts, collective counts) of one run of the
 * partitioning pipeline (pipeline.h), and the default of inter-stage
 * verification. PartitionResult embeds them, so they live below the
 * schedule API (src/schedule/schedule.h).
 */
#ifndef PARTIR_PASS_STATS_H_
#define PARTIR_PASS_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/spmd/optimize.h"

namespace partir {

/** Inter-stage verification defaults on in assertion-enabled builds: the
 *  debug CI job runs every pipeline with the verifier between stages, while
 *  release builds pay nothing unless they opt in. */
#ifdef NDEBUG
inline constexpr bool kVerifyPassesDefault = false;
#else
inline constexpr bool kVerifyPassesDefault = true;
#endif

/** Statistics of one pipeline stage, accumulated over every time it ran
 *  (the optimize fixpoint runs its stages once per round). */
struct PassStats {
  std::string name;
  double seconds = 0;      // total wall-clock across runs
  int64_t runs = 0;        // times the stage ran
  int64_t changes = 0;     // rewrites / actions / propagation steps applied
  int64_t ops_before = 0;  // op count entering the first run
  int64_t ops_after = 0;   // op count leaving the last run
  /** True once the stage ran on the lowered device-local module, making
   *  the collective counts below meaningful. */
  bool lowered = false;
  /** Collective counts after the stage FIRST ran on the lowered module —
   *  the per-stage Table 3 breakdown used to debug collective formation.
   *  For the fixpoint stages this is the first round (which stage formed
   *  what); later rounds see only the converged module. */
  CollectiveStats collectives;
};

/** Per-stage statistics of one pipeline run, in the order the stages
 *  first ran. */
struct PipelineStats {
  std::vector<PassStats> passes;
  double verify_seconds = 0;  // total inter-stage verification time
  int64_t verify_runs = 0;    // number of verifier invocations
  double total_seconds = 0;   // whole pipeline wall-clock
  /** Static-analysis stage results (PartitionOptions::analyze): checkers run
   *  and diagnostic counts, so callers (and bench JSONs) can gate on zero
   *  diagnostics without holding the full AnalysisReport. */
  int64_t analysis_checkers = 0;
  int64_t analysis_errors = 0;
  int64_t analysis_warnings = 0;

  /** First stage with the given name, or nullptr. */
  const PassStats* Find(const std::string& name) const {
    for (const PassStats& pass : passes) {
      if (pass.name == name) return &pass;
    }
    return nullptr;
  }

  /** Human-readable per-stage table (name, ms, runs, changes, op delta). */
  std::string ToString() const;
};

}  // namespace partir

#endif  // PARTIR_PASS_STATS_H_
