#include "src/spmd/spmd_interpreter.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/exec/device_program.h"
#include "src/exec/executor.h"
#include "src/interp/interpreter.h"
#include "src/spmd/collectives.h"

namespace partir {
namespace {

/**
 * Typed validation of a Run request: arity, shardability of every global
 * input, and agreement of the sharded shape with the device-local argument
 * type. Runs before any device thread starts, so all user-facing failure
 * modes surface as Status instead of mid-execution aborts.
 */
Status ValidateSpmdInputs(const SpmdModule& spmd,
                          const std::vector<Tensor>& global_inputs) {
  const Func& func = *spmd.main();
  int expected = func.body().num_args();
  if (static_cast<int>(global_inputs.size()) != expected) {
    return InvalidArgumentError("SPMD program '", func.name(), "' expects ",
                                expected, " inputs, got ",
                                global_inputs.size());
  }
  if (static_cast<int>(spmd.input_shardings.size()) != expected) {
    return InternalError("SPMD module has ", spmd.input_shardings.size(),
                         " input shardings for ", expected, " arguments");
  }
  for (int i = 0; i < expected; ++i) {
    const Value* arg = func.body().arg(i);
    const ValueSharding& sharding = spmd.input_shardings[i];
    std::vector<int64_t> local = global_inputs[i].dims();
    if (local.size() < sharding.axes.size()) {
      return InvalidArgumentError(
          "input ", i, " ('", arg->name(), "') has rank ", local.size(),
          " but its sharding names ", sharding.axes.size(), " dims");
    }
    for (size_t dim = 0; dim < sharding.axes.size(); ++dim) {
      for (const std::string& axis : sharding.axes[dim]) {
        int64_t size = spmd.mesh.AxisSize(axis);
        if (local[dim] % size != 0) {
          return InvalidArgumentError(
              "input ", i, " ('", arg->name(), "') dim ", dim, " of size ",
              local[dim], " is not divisible by mesh axis '", axis,
              "' of size ", size);
        }
        local[dim] /= size;
      }
    }
    if (local != arg->tensor_type().dims()) {
      return InvalidArgumentError(
          "input ", i, " ('", arg->name(), "') shards to shape [",
          StrJoin(local, ","), "], but the device-local program expects [",
          StrJoin(arg->tensor_type().dims(), ","), "]; global shape was [",
          StrJoin(global_inputs[i].dims(), ","), "]");
    }
  }
  return Status::Ok();
}

/** Evaluates a device-local (non-collective) op into `env`. */
void EvalLocalOp(const Operation& op, Env& env) {
  if (op.num_regions() > 0) {
    // PartIR:Core loop still in the device-local program: the reference
    // interpreter's sequential loop semantics, against this device's env.
    EvalOpInEnv(op, env);
    return;
  }
  std::vector<Tensor> operands;
  operands.reserve(op.operands().size());
  for (const Value* operand : op.operands()) {
    operands.push_back(env.at(operand));
  }
  std::vector<Tensor> results = EvalOp(op, operands);
  for (int i = 0; i < op.num_results(); ++i) {
    env[op.result(i)] = std::move(results[i]);
  }
}

/**
 * The sequential reference walker: one loop over ops, each evaluated on
 * every device (collectives one replica group at a time, in group-position
 * order — the same order the compiled executor's threads fold in).
 */
void RunSequential(const SpmdModule& spmd, const CollectivePlan& plan,
                   std::vector<Env>& envs) {
  const Func& func = *spmd.main();
  int64_t num_devices = spmd.mesh.NumDevices();
  for (const auto& op : func.body().ops()) {
    if (op->kind() == OpKind::kReturn) return;
    auto it = plan.ops.find(op.get());
    if (it == plan.ops.end()) {
      for (int64_t d = 0; d < num_devices; ++d) EvalLocalOp(*op, envs[d]);
      continue;
    }
    const CollectiveOp& col = it->second;
    if (col.kind == OpKind::kAllSlice) {
      for (int64_t d = 0; d < num_devices; ++d) {
        envs[d][op->result()] = ApplySliceSteps(
            envs[d].at(op->operand(0)), col.slice_steps_per_device[d]);
      }
      continue;
    }
    for (const std::vector<int64_t>& group : col.groups->groups) {
      std::vector<Tensor> inputs;
      inputs.reserve(group.size());
      for (int64_t d : group) inputs.push_back(envs[d].at(op->operand(0)));
      std::vector<Tensor> outputs = EvalGroupCollective(col, inputs);
      for (size_t p = 0; p < group.size(); ++p) {
        envs[group[p]][op->result()] = std::move(outputs[p]);
      }
    }
  }
  PARTIR_UNREACHABLE("spmd function has no return");
}

}  // namespace

PerDevice ShardTensor(const Tensor& global, const ValueSharding& sharding,
                      const Mesh& mesh) {
  int64_t num_devices = mesh.NumDevices();
  PerDevice shards(num_devices);
  for (int64_t d = 0; d < num_devices; ++d) {
    Tensor local = global;
    std::vector<int64_t> coords = mesh.Coordinates(d);
    for (size_t dim = 0; dim < sharding.axes.size(); ++dim) {
      for (const std::string& axis : sharding.axes[dim]) {
        local = local.SliceChunk(static_cast<int64_t>(dim),
                                 coords[mesh.AxisIndex(axis)],
                                 mesh.AxisSize(axis));
      }
    }
    shards[d] = std::move(local);
  }
  return shards;
}

Tensor UnshardTensor(const PerDevice& shards, const ValueSharding& sharding,
                     const Mesh& mesh) {
  // Reconstruct the global tensor by walking every device's shard into its
  // global offset; devices holding the same chunk (replicas) must agree.
  std::vector<int64_t> global_dims = shards[0].dims();
  for (size_t dim = 0; dim < sharding.axes.size(); ++dim) {
    for (const std::string& axis : sharding.axes[dim]) {
      global_dims[dim] *= mesh.AxisSize(axis);
    }
  }
  Tensor global(global_dims);
  Tensor written(global_dims, -1.0f);  // -1 = unwritten sentinel
  const std::vector<int64_t>& local_dims = shards[0].dims();
  for (int64_t d = 0; d < mesh.NumDevices(); ++d) {
    std::vector<int64_t> coords = mesh.Coordinates(d);
    // Offset of this device's shard in the global tensor (first listed
    // axis outermost, matching all_slice's successive chunking).
    std::vector<int64_t> offsets(global_dims.size(), 0);
    for (size_t dim = 0; dim < sharding.axes.size(); ++dim) {
      int64_t chunk = 0;
      for (const std::string& axis : sharding.axes[dim]) {
        chunk = chunk * mesh.AxisSize(axis) + coords[mesh.AxisIndex(axis)];
      }
      offsets[dim] = chunk * local_dims[dim];
    }
    ForEachIndex(local_dims, [&](const std::vector<int64_t>& index) {
      std::vector<int64_t> gindex = index;
      for (size_t i = 0; i < gindex.size(); ++i) gindex[i] += offsets[i];
      float value = shards[d].Get(index);
      if (written.Get(gindex) >= 0.0f) {
        float existing = global.Get(gindex);
        float tolerance =
            1e-3f * std::max(1.0f, std::max(std::abs(existing),
                                            std::abs(value)));
        bool both_nan = std::isnan(existing) && std::isnan(value);
        PARTIR_CHECK(both_nan || std::abs(existing - value) <= tolerance)
            << "replica mismatch at device " << d << ": " << existing
            << " vs " << value;
      }
      global.Set(gindex, value);
      written.Set(gindex, 1.0f);
    });
  }
  return global;
}

StatusOr<std::vector<Tensor>> RunSpmd(const SpmdModule& spmd,
                                      const std::vector<Tensor>& global_inputs,
                                      const RunOptions& options) {
  PARTIR_RETURN_IF_ERROR(ValidateSpmdInputs(spmd, global_inputs));
  if (options.backend == ExecBackend::kCompiled) {
    // Normally compiled once by the compile-device-programs pipeline pass;
    // hand-built (or mutated) modules are compiled here per Run.
    std::shared_ptr<const exec::DeviceProgram> program = spmd.exec_program;
    if (program == nullptr) {
      PARTIR_ASSIGN_OR_RETURN(program, exec::CompileDeviceProgram(spmd));
    }
    return exec::ExecuteCompiled(spmd, *program, global_inputs, options);
  }
  // kInterpret: the sequential reference walker, on the calling thread
  // whatever num_threads, deterministic and pool say.
  std::atomic<int64_t> run_allocs{0};
  AllocationScope alloc_scope(options.stats != nullptr ? &run_allocs
                                                       : nullptr);

  // Normally precomputed right after collective optimization; modules built
  // by hand (or mutated through mutable_spmd) are planned here.
  std::shared_ptr<const CollectivePlan> local_plan = spmd.plan;
  if (local_plan == nullptr) {
    local_plan = BuildCollectivePlan(spmd.mesh, *spmd.module);
  }

  const Func& func = *spmd.main();
  if (func.body().num_ops() == 0 ||
      func.body().terminator()->kind() != OpKind::kReturn) {
    return InternalError("SPMD function '", func.name(),
                         "' has no return terminator");
  }
  int64_t num_devices = spmd.mesh.NumDevices();
  std::vector<Env> envs(num_devices);
  for (int i = 0; i < func.body().num_args(); ++i) {
    PerDevice shards =
        ShardTensor(global_inputs[i], spmd.input_shardings[i], spmd.mesh);
    for (int64_t d = 0; d < num_devices; ++d) {
      envs[d][func.body().arg(i)] = std::move(shards[d]);
    }
  }

  RunSequential(spmd, *local_plan, envs);

  const Operation* ret = func.body().terminator();
  std::vector<Tensor> outputs;
  outputs.reserve(ret->operands().size());
  for (size_t i = 0; i < ret->operands().size(); ++i) {
    PerDevice shards(num_devices);
    for (int64_t d = 0; d < num_devices; ++d) {
      shards[d] = envs[d].at(ret->operand(i));
    }
    outputs.push_back(
        UnshardTensor(shards, spmd.output_shardings[i], spmd.mesh));
  }
  if (options.stats != nullptr) {
    options.stats->allocations = run_allocs.load(std::memory_order_relaxed);
  }
  return outputs;
}

}  // namespace partir
