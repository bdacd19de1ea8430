/**
 * @file
 * The execution engine: runs a compiled DeviceProgram over the mesh with
 * slot-indexed arenas instead of Value->Tensor maps, planner-driven buffer
 * reuse and in-place elementwise updates. The program is flat (one
 * straight-line instruction stream; device_program.h refuses loop
 * regions), so each device runs every instruction exactly once. A Run
 * walks the devices sequentially, or gives each device its own thread (on
 * the executable's persistent worker pool when it has one) meeting at
 * rendezvous collectives (src/spmd/rendezvous.h). This is the only place
 * threading, the pool, rendezvous and arrival-order folding live.
 *
 * Outputs are bit-identical to the sequential reference walker
 * (ExecBackend::kInterpret): elementwise ops, fused or single, run the
 * interpreter's span kernels; the strided dot, reduce, transpose and
 * broadcast_in_dim kernels (kernels.h) write into the result's arena slot
 * and sum or fold in the walker's order; convolutions, gather,
 * scatter_add, static_slice and concatenate fall back to the interpreter's
 * own EvalOpRef; and collectives fold in group position order. Inputs are
 * sharded and outputs unsharded by block copies on the calling thread; a
 * replica mismatch in an output is a kInternal Status, not an abort.
 */
#ifndef PARTIR_EXEC_EXECUTOR_H_
#define PARTIR_EXEC_EXECUTOR_H_

#include <vector>

#include "src/exec/device_program.h"
#include "src/interp/tensor.h"
#include "src/spmd/spmd_interpreter.h"
#include "src/support/status.h"

namespace partir {
namespace exec {

/**
 * How many device bodies a compiled Run executes at once: num_threads
 * clamped to [1, num_devices], 0 meaning one per device. 1 is the
 * sequential walk, which needs neither threads nor a pool.
 */
int Concurrency(const RunOptions& options, int64_t num_devices);

/**
 * Runs `program` on every device of `spmd.mesh`. `global_inputs` are
 * global tensors (sharded per the module's input shardings; must already
 * be validated); returns global outputs reassembled per the output
 * shardings. Honors RunOptions::num_threads, pool and use_pool. Replicas
 * of an output that disagree are a kInternal error naming the output.
 */
StatusOr<std::vector<Tensor>> ExecuteCompiled(
    const SpmdModule& spmd, const DeviceProgram& program,
    const std::vector<Tensor>& global_inputs, const RunOptions& options);

}  // namespace exec
}  // namespace partir

#endif  // PARTIR_EXEC_EXECUTOR_H_
