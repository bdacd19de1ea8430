#include "src/exec/executor.h"

#include <algorithm>
#include <atomic>
#include <thread>
#include <utility>

#include "src/exec/kernels.h"
#include "src/exec/worker_pool.h"
#include "src/interp/interpreter.h"
#include "src/spmd/rendezvous.h"

namespace partir {
namespace exec {
namespace {

/** One device's arena: one (lazily sized) buffer per plan slot. */
using Arena = std::vector<Tensor>;

/**
 * The result-0 output buffer: recycles the slot's existing allocation when
 * the previous occupant had the same element count (the planner's
 * size-class guarantee), else allocates.
 */
Tensor& EnsureOut(Arena& arena, const Instruction& inst) {
  Tensor& out = arena[inst.result_slots[0]];
  if (out.size() != inst.result_numel) {
    out = Tensor(inst.result_dims);
  } else if (out.dims() != inst.result_dims) {
    out.ResetDims(inst.result_dims);
  }
  return out;
}

void ExecLocal(const Instruction& inst, Arena& arena);

/**
 * A compiled PartIR:Core loop: runs the body sub-program trip_count times
 * over the same arena and folds the per-iteration yields into the result
 * with the reference interpreter's sequential semantics (any = iteration 0;
 * sum/max = in-order accumulation; tile = chunk r of the tiled dim).
 */
void RunLoop(const Instruction& inst, Arena& arena) {
  const LoopInfo& loop = *inst.loop;
  Tensor& out = EnsureOut(arena, inst);
  for (int64_t r = 0; r < loop.trip_count; ++r) {
    // The range argument is a scalar tensor holding the iteration index
    // (built from data, so it never counts as a fresh allocation).
    arena[loop.range_slot] =
        Tensor({}, std::vector<float>{static_cast<float>(r)});
    for (const Instruction& body_inst : loop.body) ExecLocal(body_inst, arena);
    const Tensor& yielded = arena[loop.yield_slot];
    switch (loop.action) {
      case LoopInfo::Action::kAny:
        std::copy(yielded.data().begin(), yielded.data().end(),
                  out.data().begin());
        return;
      case LoopInfo::Action::kSum:
      case LoopInfo::Action::kMax:
        if (r == 0) {
          std::copy(yielded.data().begin(), yielded.data().end(),
                    out.data().begin());
        } else {
          AccumulateInto(yielded, loop.action == LoopInfo::Action::kMax, out);
        }
        break;
      case LoopInfo::Action::kTile:
        PlaceChunkInto(yielded, loop.tile_dim, r, loop.trip_count, out);
        break;
    }
  }
}

/** Executes one non-collective instruction on one device's arena. */
void ExecLocal(const Instruction& inst, Arena& arena) {
  if (inst.chain != nullptr) {
    // EnsureOut first: every slot of a chain holds the same element count,
    // so the output buffer is never reallocated out from under an aliasing
    // input pointer taken below.
    Tensor& out = EnsureOut(arena, inst);
    const FusedChain& chain = *inst.chain;
    const float* in = arena[chain.input_slot].data().data();
    const float* external_buf[16];
    std::vector<const float*> external_heap;
    const float* const* externals;
    if (chain.steps.size() <= 16) {
      for (size_t s = 0; s < chain.steps.size(); ++s) {
        int slot = chain.steps[s].external_slot;
        external_buf[s] = slot >= 0 ? arena[slot].data().data() : nullptr;
      }
      externals = external_buf;
    } else {
      external_heap.resize(chain.steps.size());
      for (size_t s = 0; s < chain.steps.size(); ++s) {
        int slot = chain.steps[s].external_slot;
        external_heap[s] = slot >= 0 ? arena[slot].data().data() : nullptr;
      }
      externals = external_heap.data();
    }
    RunFusedChain(chain, in, externals, out.data().data(), inst.result_numel);
    return;
  }
  if (inst.loop != nullptr) {
    RunLoop(inst, arena);
    return;
  }
  if (inst.kind == OpKind::kPSlice) {
    const Tensor& in = arena[inst.operand_slots[0]];
    const int64_t chunk =
        static_cast<int64_t>(arena[inst.operand_slots[1]].data()[0]);
    SliceChunkInto(in, inst.pslice_dim, chunk, inst.pslice_count,
                   EnsureOut(arena, inst));
    return;
  }
  if (inst.baked != nullptr) {
    Tensor& out = EnsureOut(arena, inst);
    std::copy(inst.baked->data().begin(), inst.baked->data().end(),
              out.data().begin());
    return;
  }
  if (IsUnaryElementwise(inst.kind)) {
    if (inst.in_place_operand == 0) {
      float* p = arena[inst.operand_slots[0]].data().data();
      for (int64_t k = 0; k < inst.result_numel; ++k) {
        p[k] = ApplyUnaryOp(inst.kind, p[k]);
      }
    } else {
      const float* in = arena[inst.operand_slots[0]].data().data();
      Tensor& out = EnsureOut(arena, inst);
      float* o = out.data().data();
      for (int64_t k = 0; k < inst.result_numel; ++k) {
        o[k] = ApplyUnaryOp(inst.kind, in[k]);
      }
    }
    return;
  }
  if (IsBinaryElementwise(inst.kind)) {
    // The kernels read both inputs at k before writing k, so the output
    // may alias either (or both) operands.
    const float* a = arena[inst.operand_slots[0]].data().data();
    const float* b = arena[inst.operand_slots[1]].data().data();
    float* o = inst.in_place_operand >= 0
                   ? arena[inst.operand_slots[inst.in_place_operand]]
                         .data().data()
                   : EnsureOut(arena, inst).data().data();
    for (int64_t k = 0; k < inst.result_numel; ++k) {
      o[k] = ApplyBinaryOp(inst.kind, a[k], b[k]);
    }
    return;
  }
  if (inst.fast_dot) {
    const Tensor& lhs = arena[inst.operand_slots[0]];
    const Tensor& rhs = arena[inst.operand_slots[1]];
    BlockedDot2dInto(lhs, rhs, EnsureOut(arena, inst));
    return;
  }
  if (inst.kind == OpKind::kReshape || inst.kind == OpKind::kTag) {
    const Tensor& in = arena[inst.operand_slots[0]];
    Tensor& out = EnsureOut(arena, inst);
    std::copy(in.data().begin(), in.data().end(), out.data().begin());
    return;
  }
  // Generic fallback: the interpreter's own kernels over arena pointers.
  std::vector<const Tensor*> operands;
  operands.reserve(inst.operand_slots.size());
  for (int slot : inst.operand_slots) operands.push_back(&arena[slot]);
  std::vector<Tensor> results = EvalOpRef(*inst.op, operands);
  for (size_t r = 0; r < results.size(); ++r) {
    arena[inst.result_slots[r]] = std::move(results[r]);
  }
}

/** Takes a collective's operand out of the arena (moving when it dies). */
Tensor TakeOperand(const Instruction& inst, Arena& arena) {
  Tensor& buf = arena[inst.operand_slots[0]];
  if (inst.operand_dies[0]) return std::move(buf);
  return buf;
}

/** Sequential walk: each instruction on every device in turn, collectives
 *  one replica group at a time in group-position order. */
void RunSequentialExec(const DeviceProgram& program,
                       std::vector<Arena>& arenas) {
  const int64_t num_devices = static_cast<int64_t>(arenas.size());
  for (const Instruction& inst : program.instructions) {
    if (inst.collective == nullptr) {
      for (int64_t d = 0; d < num_devices; ++d) ExecLocal(inst, arenas[d]);
      continue;
    }
    const CollectiveOp& col = *inst.collective;
    if (col.kind == OpKind::kAllSlice) {
      for (int64_t d = 0; d < num_devices; ++d) {
        Tensor out = ApplySliceSteps(arenas[d][inst.operand_slots[0]],
                                     col.slice_steps_per_device[d]);
        arenas[d][inst.result_slots[0]] = std::move(out);
      }
      continue;
    }
    for (const std::vector<int64_t>& group : col.groups->groups) {
      std::vector<Tensor> inputs;
      inputs.reserve(group.size());
      for (int64_t d : group) inputs.push_back(TakeOperand(inst, arenas[d]));
      std::vector<Tensor> outputs = EvalGroupCollective(col, inputs);
      for (size_t p = 0; p < group.size(); ++p) {
        arenas[group[p]][inst.result_slots[0]] = std::move(outputs[p]);
      }
    }
  }
}

/**
 * Threaded runtime: one body per device, rendezvous collectives, and a
 * semaphore throttling concurrency. Device bodies run on the persistent
 * worker pool when one is supplied and idle; otherwise (no pool, pool too
 * small, or another Run holding its submit lease) each body gets a freshly
 * spawned thread.
 */
void RunThreadedExec(const DeviceProgram& program, const RunOptions& options,
                     std::vector<Arena>& arenas, int max_concurrency,
                     std::atomic<int64_t>* alloc_sink) {
  const int64_t num_devices = static_cast<int64_t>(arenas.size());
  std::vector<GroupSite> sites(program.num_sites);
  Semaphore throttle(max_concurrency);

  auto run_device = [&](int64_t device) {
    AllocationScope alloc_scope(alloc_sink);
    throttle.Acquire();
    Arena& arena = arenas[device];
    for (const Instruction& inst : program.instructions) {
      if (inst.collective == nullptr) {
        ExecLocal(inst, arena);
        continue;
      }
      const CollectiveOp& col = *inst.collective;
      if (col.kind == OpKind::kAllSlice) {
        Tensor out = ApplySliceSteps(arena[inst.operand_slots[0]],
                                     col.slice_steps_per_device[device]);
        arena[inst.result_slots[0]] = std::move(out);
        continue;
      }
      GroupSite& site = sites[inst.site_base + col.groups->group_of[device]];
      Tensor output = RendezvousExchange(
          col, site, col.groups->position_of[device],
          TakeOperand(inst, arena), options.deterministic, &throttle);
      arena[inst.result_slots[0]] = std::move(output);
    }
    throttle.Release();
  };

  if (options.pool != nullptr && options.use_pool &&
      options.pool->num_workers() >= num_devices &&
      options.pool->TryRun(num_devices, run_device)) {
    return;
  }
  std::vector<std::thread> threads;
  threads.reserve(num_devices);
  for (int64_t d = 0; d < num_devices; ++d) {
    threads.emplace_back(run_device, d);
  }
  for (std::thread& thread : threads) thread.join();
}

}  // namespace

int Concurrency(const RunOptions& options, int64_t num_devices) {
  const int devices = static_cast<int>(num_devices);
  if (options.num_threads == 0) return devices;
  return std::max(1, std::min(options.num_threads, devices));
}

StatusOr<std::vector<Tensor>> ExecuteCompiled(
    const SpmdModule& spmd, const DeviceProgram& program,
    const std::vector<Tensor>& global_inputs, const RunOptions& options) {
  std::atomic<int64_t> run_allocs{0};
  std::atomic<int64_t>* sink = options.stats != nullptr ? &run_allocs : nullptr;
  // Counts sharding/unsharding on the calling thread too; device threads
  // install their own scope around the device body.
  AllocationScope alloc_scope(sink);

  const int64_t num_devices = spmd.mesh.NumDevices();
  std::vector<Arena> arenas(
      num_devices, Arena(program.plan.slot_numels.size()));
  for (size_t i = 0; i < program.input_slots.size(); ++i) {
    PerDevice shards =
        ShardTensor(global_inputs[i], spmd.input_shardings[i], spmd.mesh);
    for (int64_t d = 0; d < num_devices; ++d) {
      arenas[d][program.input_slots[i]] = std::move(shards[d]);
    }
  }

  const int concurrency = Concurrency(options, num_devices);
  if (concurrency == 1) {
    RunSequentialExec(program, arenas);
  } else {
    RunThreadedExec(program, options, arenas, concurrency, sink);
  }

  std::vector<Tensor> outputs;
  outputs.reserve(program.output_slots.size());
  for (size_t i = 0; i < program.output_slots.size(); ++i) {
    PerDevice shards(num_devices);
    for (int64_t d = 0; d < num_devices; ++d) {
      shards[d] = arenas[d][program.output_slots[i]];
    }
    outputs.push_back(
        UnshardTensor(shards, spmd.output_shardings[i], spmd.mesh));
  }
  if (options.stats != nullptr) {
    options.stats->allocations = run_allocs.load(std::memory_order_relaxed);
  }
  return outputs;
}

}  // namespace exec
}  // namespace partir
