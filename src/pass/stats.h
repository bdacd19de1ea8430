/**
 * @file
 * Pass-pipeline observability types: per-pass statistics (wall-clock,
 * op-deltas, rewrite counts, collective counts) and the PipelineOptions that
 * control inter-pass verification. These are the types PartitionResult
 * embeds, so they live below both the pass framework (src/pass/pass.h) and
 * the schedule API (src/schedule/schedule.h).
 */
#ifndef PARTIR_PASS_STATS_H_
#define PARTIR_PASS_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/spmd/optimize.h"

namespace partir {

/** Inter-pass verification defaults on in assertion-enabled builds: the
 *  debug CI job runs every pipeline with the verifier between passes, while
 *  release builds pay nothing unless they opt in. */
#ifdef NDEBUG
inline constexpr bool kVerifyPassesDefault = false;
#else
inline constexpr bool kVerifyPassesDefault = true;
#endif

/** Knobs of the PassManager itself (how to run a pipeline, not what the
 *  pipeline computes — none of these change the partitioned program). */
struct PipelineOptions {
  /** Run the IR verifier after every pass; a violation surfaces as a typed
   *  kInternal Status naming the offending pass, never an abort. */
  bool verify_after_each_pass = kVerifyPassesDefault;
};

/** Statistics of one registered pass, accumulated over every time it ran
 *  (fixpoint groups run their member passes several times). */
struct PassStats {
  std::string name;
  double seconds = 0;      // total wall-clock across runs
  int64_t runs = 0;        // times the pass executed
  int64_t changes = 0;     // rewrites / actions / propagation steps applied
  int64_t ops_before = 0;  // op count entering the first run
  int64_t ops_after = 0;   // op count leaving the last run
  /** True once the pass ran on the lowered device-local module, making the
   *  collective counts below meaningful. */
  bool lowered = false;
  /** Collective counts after the pass FIRST ran on the lowered module —
   *  the per-stage Table 3 breakdown used to debug collective formation.
   *  For fixpoint groups this is the first-iteration delta (which pass
   *  formed what); later iterations see only the converged module. */
  CollectiveStats collectives;
};

/** Per-pass statistics of one pipeline execution, in pipeline order. */
struct PipelineStats {
  std::vector<PassStats> passes;
  double verify_seconds = 0;  // total inter-pass verification time
  int64_t verify_runs = 0;    // number of verifier invocations
  double total_seconds = 0;   // whole pipeline wall-clock
  /** Static-analysis pass results (PartitionOptions::analyze): checkers run
   *  and diagnostic counts, so callers (and bench JSONs) can gate on zero
   *  diagnostics without holding the full AnalysisReport. */
  int64_t analysis_checkers = 0;
  int64_t analysis_errors = 0;
  int64_t analysis_warnings = 0;

  /** First pass with the given name, or nullptr. */
  const PassStats* Find(const std::string& name) const {
    for (const PassStats& pass : passes) {
      if (pass.name == name) return &pass;
    }
    return nullptr;
  }

  /** Human-readable per-pass table (name, ms, runs, changes, op delta). */
  std::string ToString() const;
};

}  // namespace partir

#endif  // PARTIR_PASS_STATS_H_
