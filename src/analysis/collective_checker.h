/**
 * @file
 * Static collective deadlock / mismatch detection.
 *
 * The runtime synchronizes collectives through dense rendezvous sites: each
 * communicating collective op owns one site per replica group, and device d
 * arrives at site `site_base + group_of[d]` when it reaches the op. The
 * checker extracts every device's arrival sequence (its *trace*) and proves:
 *
 *  1. every site is reached by exactly its group's devices, exactly once
 *     each — a missing or duplicate arrival is a guaranteed hang;
 *  2. all devices arriving at a site agree on the collective's signature
 *     (kind, group axes, reduction, local element count) — a disagreement
 *     is a mismatched rendezvous;
 *  3. the cross-site "happens-before" graph — site A -> site B whenever
 *     some device arrives at A immediately before B — is acyclic. A cycle
 *     is a circular wait: every device on it blocks at a site whose other
 *     participants are blocked further along the cycle.
 *
 * In this repo's SPMD regime all devices run the same program, so traces
 * extracted from a well-formed module are identical by construction; the
 * value of the checker is over *deserialized or hand-mutated* artifacts
 * (tools/partir_lint, fault-injection tests) and as the proof obligation
 * future MPMD/pipeline tactics must keep discharging.
 */
#ifndef PARTIR_ANALYSIS_COLLECTIVE_CHECKER_H_
#define PARTIR_ANALYSIS_COLLECTIVE_CHECKER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/analysis/diagnostics.h"
#include "src/exec/device_program.h"
#include "src/spmd/lowering.h"

namespace partir {
namespace analysis {

/** One collective arrival of one device. */
struct CollectiveEvent {
  /** Position within the device's own trace. */
  int index = 0;
  /** Rendezvous site the device arrives at. */
  int64_t site = 0;
  /** Devices the site expects (the replica group size). */
  int64_t group_size = 1;
  /** Kind + axes + reduction + local numel; all arrivals must agree. */
  std::string signature;
  /** Where the event came from, for diagnostics. */
  std::string location;
};

/** The ordered collective arrivals of one device. */
struct DeviceTrace {
  int64_t device = 0;
  std::vector<CollectiveEvent> events;
};

/**
 * Extracts per-device traces from a lowered module that verifies over
 * `mesh`, by walking the top-level collectives in program order (mirroring
 * the compiler's site numbering). all_slice is device-local: no events.
 */
std::vector<DeviceTrace> ExtractCollectiveTraces(const Module& module,
                                                 const Mesh& mesh);

/** Extracts per-device traces from a compiled instruction stream, using the
 *  baked site_base / replica groups. */
std::vector<DeviceTrace> ExtractCollectiveTraces(
    const exec::DeviceProgram& program, const Mesh& mesh,
    AnalysisReport& report);

/**
 * Core detector over explicit traces (tests inject skewed ones directly):
 * proves properties 1-3 above, appending "collective-mismatch" and
 * "collective-deadlock" diagnostics for violations.
 */
void CheckCollectiveTraces(const std::vector<DeviceTrace>& traces,
                           AnalysisReport& report);

/** Extracts traces from `spmd` (compiled stream when present, else the
 *  module) and runs the detector. */
void CheckCollectives(const SpmdModule& spmd, AnalysisReport& report);

}  // namespace analysis
}  // namespace partir

#endif  // PARTIR_ANALYSIS_COLLECTIVE_CHECKER_H_
