/**
 * @file
 * partir::Executable: a partitioned, runnable program — the result of
 * Program::Partition. It owns the lowered device-local SPMD module together
 * with everything the paper's workflow inspects after partitioning:
 * per-tactic TacticReports, input/output shardings, the recorded
 * propagation conflicts, and the schedule it was partitioned with, from
 * which Print(Stage) recomputes the PartIR:Core loop form after any tactic
 * prefix (the paper's "verify the strategy after every tactic" loop as a
 * first-class API).
 */
#ifndef PARTIR_API_EXECUTABLE_H_
#define PARTIR_API_EXECUTABLE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/exec/device_program.h"
#include "src/interp/tensor.h"
#include "src/schedule/schedule.h"
#include "src/spmd/spmd_interpreter.h"
#include "src/support/status.h"

namespace partir {

class PartitionCache;

namespace exec {
class WorkerPool;
}  // namespace exec

/**
 * Mutable runtime state of one Executable, shared across moves (and kept
 * alive by in-flight Runs' options): the lazily created persistent device
 * worker pool, and the most recent Run's allocation count.
 */
struct RunRuntime {
  std::mutex mu;
  /** One resident thread per mesh device, created on the first threaded
   *  Run and reused by every threaded Run after it; null until then (and
   *  forever on single-device meshes, which never go threaded). */
  std::shared_ptr<exec::WorkerPool> pool;
  /** RunStats::allocations of the most recent completed Run, -1 before. */
  std::atomic<int64_t> last_run_allocations{-1};
};

namespace api_internal {
/** Validates input count and shapes against a function signature. */
Status ValidateInputs(const Func& func, const std::vector<Tensor>& inputs);
}  // namespace api_internal

/**
 * A point in the partitioning pipeline whose module form Executable::Print
 * can render:
 *   Stage::Source()        the traced (unpartitioned) program
 *   Stage::AfterTactic(i)  PartIR:Core loop form after tactics [0..i]: after
 *                          tactic i's propagation in incremental mode, after
 *                          its bare actions in PartIR-st (automatic tactics
 *                          propagate internally)
 *   Stage::Loops()         loop form after the full schedule (PartIR-st:
 *                          after the deferred propagation)
 *   Stage::Spmd()          the final device-local SPMD module
 */
class Stage {
 public:
  static Stage Source() { return Stage(Kind::kSource, -1); }
  static Stage AfterTactic(int index) {
    return Stage(Kind::kAfterTactic, index);
  }
  static Stage Loops() { return Stage(Kind::kLoops, -1); }
  static Stage Spmd() { return Stage(Kind::kSpmd, -1); }

 private:
  friend class Executable;
  enum class Kind { kSource, kAfterTactic, kLoops, kSpmd };
  Stage(Kind kind, int index) : kind_(kind), index_(index) {}
  Kind kind_;
  int index_;
};

/** A partitioned program, ready to run, estimate, inspect or re-partition. */
class Executable {
 public:
  Executable(Executable&&) = default;
  Executable& operator=(Executable&&) = default;

  // ---- Running ----

  /**
   * Executes the SPMD program on every device of the mesh. `inputs` are the
   * *global* tensors of the traced program; they are sharded per the input
   * shardings, and the global outputs are reassembled. Input count, rank
   * and dims are validated up front with typed errors.
   *
   * By default the compiled executor runs every simulated device on its
   * own thread with rendezvous collectives (RunOptions);
   * options.num_threads == 1 runs the devices one after another on the
   * calling thread. options.backend = ExecBackend::kInterpret selects the
   * sequential reference walker instead, which ignores num_threads and
   * the pool. Every one of these is bit-identical to the walker.
   *
   * Threaded Runs reuse this executable's persistent worker pool (one
   * resident thread per device, created on the first threaded Run) instead
   * of spawning num_devices threads per call; sequential Runs never create
   * it. options.use_pool = false restores the spawning behavior, and a
   * caller-supplied options.pool overrides the executable's own.
   * options.stats, when set, receives per-Run statistics; the latest Run's
   * allocation count is also reported by memory_stats().
   */
  StatusOr<std::vector<Tensor>> Run(const std::vector<Tensor>& inputs,
                                    const RunOptions& options = {}) const;

  // ---- Cost estimation ----

  /** Simulator estimate for the device spec the schedule was built with. */
  const SimEstimate& Estimate() const { return result_.estimate; }
  /** Re-estimates the lowered program on a different device spec. */
  SimEstimate Estimate(const DeviceSpec& device) const;

  /**
   * Memory-planner statistics of the compiled device program: per-device
   * peak arena bytes (what one simulated device must hold), liveness peak,
   * slot-reuse and in-place counts, and the fresh-tensor-per-op baseline
   * for comparison. Compiles a program ad hoc when the pipeline's one was
   * invalidated; errors when the module cannot be compiled.
   */
  StatusOr<exec::MemoryStats> memory_stats() const;

  // ---- Inspection ----

  /**
   * Runs the static analysis suite (src/analysis/: the IR verifier, lint,
   * collective deadlock/mismatch detection, memory-plan verification)
   * over the CURRENT device-local module and compiled
   * program, so it reflects any backend mutation through mutable_spmd().
   * Never fails: problems (including a module that no longer compiles)
   * come back as diagnostics in the report.
   */
  analysis::AnalysisReport Analyze() const;

  /** The analysis report the pipeline recorded at build time
   *  (PartitionOptions::analyze); empty when analysis was disabled.
   *  A cache hit carries the original miss run's report verbatim. */
  const analysis::AnalysisReport& analysis_report() const {
    return result_.analysis;
  }

  /**
   * Renders the module form at a pipeline stage. The source and the
   * device-local module are held; a loop-form stage is recomputed by
   * replaying the schedule's tactic prefix on a fresh context
   * (ReplayLoopForm), so it costs a partial partition per call. Errors with
   * kInvalidArgument for an out-of-range tactic index, and with kInternal
   * if the recomputed loop form fails the IR verifier.
   */
  StatusOr<std::string> Print(Stage stage) const;

  /** Per-tactic metadata, in schedule order: name, actions applied,
   *  cumulative conflicts, wall-clock and search statistics. The
   *  collectives and estimate after tactic i are those of
   *  Respecialize(schedule[0..i]). */
  const std::vector<TacticReport>& tactics() const { return result_.tactics; }
  /** Propagation conflicts recorded over the whole schedule. */
  const std::vector<Conflict>& conflicts() const { return result_.conflicts; }
  /** Final collective counts (Table 3 rows). */
  const CollectiveStats& Collectives() const { return result_.collectives; }
  double partition_seconds() const { return result_.partition_seconds; }

  /**
   * Per-stage statistics of the pipeline run that compiled this executable:
   * wall-clock, op deltas, rewrite counts, and — once lowered — the
   * collective counts after each stage first ran on the lowered module (the
   * per-stage Table 3 breakdown attributing which stage formed what).
   * A cache hit carries the stats of the original miss run verbatim.
   */
  const PipelineStats& pipeline_stats() const { return result_.pipeline; }

  const Mesh& mesh() const { return result_.spmd.mesh; }
  int num_inputs() const {
    return static_cast<int>(result_.spmd.input_shardings.size());
  }
  const ValueSharding& input_sharding(int i) const {
    return result_.spmd.input_shardings.at(i);
  }
  const ValueSharding& output_sharding(int i) const {
    return result_.spmd.output_shardings.at(i);
  }

  /** The lowered device-local module (mutable form hands the module to a
   *  backend stand-in; the facade itself never mutates it after build).
   *  Mutable access drops the precomputed collective plan — the next Run
   *  re-plans against whatever the backend left behind. */
  const SpmdModule& spmd() const { return result_.spmd; }
  SpmdModule& mutable_spmd() {
    result_.spmd.InvalidatePlan();
    return result_.spmd;
  }

  // ---- Persistence ----

  /**
   * Saves the full partition result to `path` in the persistent-cache
   * entry format (src/persist/): the device-local SPMD module, shardings,
   * per-tactic reports and pipeline statistics, framed
   * with a version and checksum and written via temp-file + atomic rename.
   * The payload is exactly what the partition cache's disk tier stores, so
   * a saved result can be decoded with persist::DecodeEntry +
   * persist::DeserializePartitionResult (the collective plan and compiled
   * device program are process-local and recompiled on load).
   */
  Status SaveResult(const std::string& path) const;

  // ---- Re-partitioning ----

  /**
   * Re-partitions the traced program this executable was compiled from
   * under a new schedule (same mesh and options), reusing the trace — the
   * entry point for incremental strategy exploration and multi-query
   * serving, where one traced program is specialized per query shape or
   * per sharding strategy. Served through the originating Program's
   * partition cache: a schedule seen before (by Partition or another
   * Respecialize) skips the pipeline.
   */
  StatusOr<Executable> Respecialize(
      const std::vector<Tactic>& new_schedule) const;
  StatusOr<Executable> Respecialize(const std::vector<Tactic>& new_schedule,
                                    const PartitionOptions& options) const;

 private:
  friend class Program;

  /** The executable's own pool, created on the first threaded Run. */
  exec::WorkerPool* EnsurePool() const;

  Executable(std::shared_ptr<Module> module, Func* traced,
             std::vector<Tactic> schedule, PartitionOptions options,
             PartitionResult result, std::shared_ptr<PartitionCache> cache)
      : module_(std::move(module)), traced_(traced),
        schedule_(std::move(schedule)), options_(std::move(options)),
        result_(std::move(result)), cache_(std::move(cache)) {}

  std::shared_ptr<Module> module_;  // keeps the traced IR alive
  Func* traced_;                    // the traced function inside module_
  std::vector<Tactic> schedule_;    // what Print replays for loop forms
  PartitionOptions options_;
  PartitionResult result_;  // its spmd.mesh is the mesh of record
  std::shared_ptr<PartitionCache> cache_;  // the Program's partition cache
  std::shared_ptr<RunRuntime> runtime_ = std::make_shared<RunRuntime>();
};

}  // namespace partir

#endif  // PARTIR_API_EXECUTABLE_H_
