/**
 * @file
 * Multi-device SPMD execution: RunSpmd runs the device-local program on
 * every device of the mesh with real collective semantics (slice / gather /
 * reduce / reduce-scatter / all-to-all across mesh-axis replica groups).
 *
 * There is one execution engine, the compiled executor (src/exec/), and
 * one executable specification beside it:
 *
 *  - ExecBackend::kCompiled (the default) runs the precompiled
 *    DeviceProgram, sequentially or with one thread per simulated device
 *    meeting at rendezvous collectives. Threading, the worker pool,
 *    rendezvous and arrival-order folding live only there.
 *
 *  - ExecBackend::kInterpret is the *sequential reference walker*: one
 *    global op-walker evaluates each op on every device in turn — the
 *    executable specification of the paper's Appendix C correctness
 *    theorem (partitioned program + collectives == unpartitioned program).
 *
 * Both evaluate collectives through the same group-ordered functions
 * (collectives.h), so compiled outputs — sequential or threaded — are
 * bit-identical to the walker's; the differential suites check this.
 */
#ifndef PARTIR_SPMD_SPMD_INTERPRETER_H_
#define PARTIR_SPMD_SPMD_INTERPRETER_H_

#include <vector>

#include "src/interp/tensor.h"
#include "src/spmd/lowering.h"
#include "src/support/status.h"

namespace partir {

namespace exec {
class WorkerPool;
}  // namespace exec

/** Per-device tensors, indexed by linear device id. */
using PerDevice = std::vector<Tensor>;

/** Per-Run statistics, filled when RunOptions::stats is set. */
struct RunStats {
  /**
   * Fresh tensor-buffer constructions performed by this Run, counted on the
   * calling thread and every device thread it drives. Unlike the process-
   * wide Tensor::allocations() counter, concurrent Runs do not bleed into
   * each other's counts.
   */
  int64_t allocations = 0;
};

/** Which execution engine drives the device-local programs. */
enum class ExecBackend {
  /**
   * The sequential reference walker: walks the IR op by op on each device
   * in turn, a fresh tensor per op per device, on the calling thread. It
   * ignores num_threads, deterministic, pool and use_pool; it is the
   * reference the compiled executor is checked against, not a runtime.
   */
  kInterpret,
  /**
   * The compiled executor (src/exec/): flat instruction stream with
   * pre-resolved arena slots from the liveness memory planner, run
   * sequentially or threaded per num_threads. Bit-identical outputs to
   * kInterpret on all supported programs.
   */
  kCompiled,
};

/** Options controlling multi-device execution. */
struct RunOptions {
  /**
   * Worker threads executing device programs. 0 (default) runs one thread
   * per simulated device; 1 runs the devices one after another on the
   * calling thread; any other value caps how many device threads run
   * concurrently (a thread waiting at a collective rendezvous releases its
   * slot, so any positive cap is deadlock-free). Values above the device
   * count are clamped. kInterpret ignores it.
   */
  int num_threads = 0;
  /**
   * When true (default), collective reductions fold in group-position
   * order: outputs are bit-identical to the sequential walker and across
   * repeated runs. When false, threaded all_reduce / reduce_scatter fold in
   * thread arrival order — correct within float tolerance, not bit-stable.
   */
  bool deterministic = true;
  /**
   * Execution engine. kCompiled (default) executes the precompiled
   * DeviceProgram, compiling one ad hoc when the module carries none;
   * kInterpret selects the sequential reference walker.
   */
  ExecBackend backend = ExecBackend::kCompiled;
  /**
   * Persistent device worker pool (exec/worker_pool.h). When non-null,
   * `use_pool` is true, and the pool has at least one worker per device,
   * a threaded compiled Run dispatches device bodies onto the pool's
   * resident threads instead of spawning a fresh std::thread per device.
   * If the pool is busy (another Run holds its submit lease), execution
   * falls back to spawning, so concurrent Runs stay correct.
   */
  exec::WorkerPool* pool = nullptr;
  bool use_pool = true;
  /** When non-null, filled with this Run's statistics. */
  RunStats* stats = nullptr;
};

/** Slices a global tensor into per-device shards per the sharding. */
PerDevice ShardTensor(const Tensor& global, const ValueSharding& sharding,
                      const Mesh& mesh);

/**
 * Reassembles a global tensor from per-device shards; checks that devices
 * holding the same shard agree (replica consistency).
 */
Tensor UnshardTensor(const PerDevice& shards, const ValueSharding& sharding,
                     const Mesh& mesh);

/**
 * Runs the SPMD program on all devices. `inputs[i]` are the *global* input
 * tensors; they are sharded per the module's input shardings. Returns the
 * *global* outputs, reassembled per the output shardings. Input arity and
 * shape mismatches (including unshardable global dims) are typed errors,
 * reported before any device thread starts.
 */
StatusOr<std::vector<Tensor>> RunSpmd(const SpmdModule& spmd,
                                      const std::vector<Tensor>& global_inputs,
                                      const RunOptions& options = {});

}  // namespace partir

#endif  // PARTIR_SPMD_SPMD_INTERPRETER_H_
