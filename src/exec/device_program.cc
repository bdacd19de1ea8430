#include "src/exec/device_program.h"

#include <atomic>
#include <string>
#include <utility>

#include "src/interp/interpreter.h"
#include "src/ir/op_kind.h"

namespace partir {
namespace exec {
namespace {

std::atomic<int64_t> compiled_program_count{0};

/** Single-result elementwise op: fused-chain candidate. */
bool IsElementwiseOp(const Operation& op) {
  return (IsUnaryElementwise(op.kind()) || IsBinaryElementwise(op.kind())) &&
         op.num_results() == 1;
}

/**
 * The record of instruction `i`: slots, shape, which operands die here,
 * in-place adoption from the plan, baked constants and kernel tags.
 */
Instruction BuildInstruction(const Operation& op, int i,
                             const MemoryPlan& plan) {
  Instruction inst;
  inst.kind = op.kind();
  inst.op = &op;

  const ValuePlan& result0 = plan.values[plan.IndexOf(op.result(0))];
  for (int r = 0; r < op.num_results(); ++r) {
    inst.result_slots.push_back(plan.values[plan.IndexOf(op.result(r))].slot);
  }
  inst.result_dims = op.result(0)->tensor_type().dims();
  inst.result_numel = result0.numel;

  for (int j = 0; j < op.num_operands(); ++j) {
    const Value* operand = op.operand(j);
    const ValuePlan& ovp = plan.values[plan.IndexOf(operand)];
    inst.operand_slots.push_back(ovp.slot);
    bool first_occurrence = true;
    for (int k = 0; k < j; ++k) {
      if (op.operand(k) == operand) first_occurrence = false;
    }
    inst.operand_dies.push_back(ovp.last_use == i && first_occurrence);
    if (result0.in_place && ovp.slot == result0.slot &&
        inst.in_place_operand < 0) {
      inst.in_place_operand = j;
    }
  }
  // The in-place operand's buffer is not reclaimable — it becomes the
  // result.
  if (inst.in_place_operand >= 0) {
    inst.operand_dies[inst.in_place_operand] = false;
  }

  if (op.num_operands() == 0) {
    // Constants / iota: materialize the value once at compile time.
    std::vector<Tensor> baked = EvalOp(op, {});
    inst.baked = std::make_shared<const Tensor>(std::move(baked[0]));
  }
  inst.strided = MakeStridedKernel(op);
  return inst;
}

/**
 * Length of the fusable elementwise chain starting at instruction `i` of
 * `body` (1 = no fusion). Each link's result must be elementwise, die
 * exactly at the next instruction, feed it, and keep the element count.
 */
int ChainLength(const Block& body, const MemoryPlan& plan, int i) {
  const Operation* cur = body.ops()[i].get();
  if (!IsElementwiseOp(*cur)) return 1;
  const int64_t numel = cur->result()->tensor_type().NumElements();
  int len = 1;
  while (i + len < plan.num_instructions) {
    const Operation* next = body.ops()[i + len].get();
    if (!IsElementwiseOp(*next)) break;
    if (next->result()->tensor_type().NumElements() != numel) break;
    const ValuePlan& cvp = plan.values[plan.IndexOf(cur->result())];
    if (cvp.last_use != i + len) break;  // intermediate must die at next
    bool feeds = false;
    for (const Value* operand : next->operands()) {
      if (operand == cur->result()) feeds = true;
    }
    if (!feeds) break;
    cur = next;
    ++len;
  }
  return len;
}

/** Builds the fused instruction for the chain [i, i+len) of `body`. */
Instruction BuildChainInstruction(const Block& body, const MemoryPlan& plan,
                                  int i, int len) {
  auto slot_of = [&plan](const Value* v) {
    return plan.values[plan.IndexOf(v)].slot;
  };
  auto chain = std::make_shared<FusedChain>();
  chain->steps.reserve(len);

  const Operation& first = *body.ops()[i];
  chain->input_slot = slot_of(first.operand(0));
  {
    ChainStep step;
    step.kind = first.kind();
    if (IsBinaryElementwise(first.kind()) &&
        first.operand(0) != first.operand(1)) {
      step.external_slot = slot_of(first.operand(1));
      step.carried_lhs = true;
    }
    chain->steps.push_back(step);
  }
  const Value* carried = first.result();
  for (int s = 1; s < len; ++s) {
    const Operation& op = *body.ops()[i + s];
    ChainStep step;
    step.kind = op.kind();
    if (IsBinaryElementwise(op.kind()) &&
        !(op.operand(0) == carried && op.operand(1) == carried)) {
      if (op.operand(0) == carried) {
        step.external_slot = slot_of(op.operand(1));
        step.carried_lhs = true;
      } else {
        step.external_slot = slot_of(op.operand(0));
        step.carried_lhs = false;
      }
    }
    chain->steps.push_back(step);
    carried = op.result();
  }

  // The fused record describes the chain's final instruction; the
  // intermediates' slots are simply never written.
  const Operation& last = *body.ops()[i + len - 1];
  Instruction inst;
  inst.kind = last.kind();
  inst.op = &last;
  const ValuePlan& rvp = plan.values[plan.IndexOf(last.result())];
  inst.result_slots.push_back(rvp.slot);
  inst.result_dims = last.result()->tensor_type().dims();
  inst.result_numel = rvp.numel;
  inst.chain = std::move(chain);
  return inst;
}

}  // namespace

Status ValidateFlatProgram(const Func& func) {
  const Block& body = func.body();
  for (int i = 0; i < body.num_ops(); ++i) {
    const Operation& op = *body.ops()[i];
    if (op.num_regions() == 0 && !IsPartirCoreOp(op.kind())) continue;
    return InvalidArgumentError(
        "device-local program '", func.name(), "' must be flat, but op ", i,
        " ('", OpKindName(op.kind()), "') ",
        op.num_regions() > 0 ? "carries a region"
                             : "is a PartIR:Core loop op");
  }
  return Status::Ok();
}

StatusOr<std::shared_ptr<const DeviceProgram>> CompileDeviceProgram(
    const SpmdModule& spmd) {
  compiled_program_count.fetch_add(1, std::memory_order_relaxed);
  const Func& func = *spmd.main();
  const Block& body = func.body();
  if (body.num_ops() == 0 || body.terminator()->kind() != OpKind::kReturn) {
    return InternalError("SPMD function '", func.name(),
                         "' has no return terminator");
  }
  PARTIR_RETURN_IF_ERROR(ValidateFlatProgram(func));

  auto program = std::make_shared<DeviceProgram>();
  program->plan = PlanMemory(func);
  program->collectives =
      spmd.plan != nullptr ? spmd.plan
                           : BuildCollectivePlan(spmd.mesh, *spmd.module);
  const MemoryPlan& plan = program->plan;

  for (int a = 0; a < body.num_args(); ++a) {
    program->input_slots.push_back(
        plan.values[plan.IndexOf(body.arg(a))].slot);
  }
  for (const Value* operand : body.terminator()->operands()) {
    program->output_slots.push_back(plan.values[plan.IndexOf(operand)].slot);
  }

  program->instructions.reserve(plan.num_instructions);
  int i = 0;
  while (i < plan.num_instructions) {
    const Operation& op = *body.ops()[i];

    // Kernel tier: a run of consecutive elementwise instructions whose
    // intermediates die immediately becomes one fused-chain instruction.
    int len = ChainLength(body, plan, i);
    if (len >= 2) {
      program->instructions.push_back(
          BuildChainInstruction(body, plan, i, len));
      program->fused_chains += 1;
      program->fused_instructions += len;
      i += len;
      continue;
    }

    Instruction inst = BuildInstruction(op, i, plan);
    if (IsCollective(op.kind())) {
      auto it = program->collectives->ops.find(&op);
      if (it == program->collectives->ops.end()) {
        return InternalError("collective op '", OpKindName(op.kind()),
                             "' missing from the collective plan");
      }
      inst.collective = &it->second;
      if (op.kind() != OpKind::kAllSlice) {
        inst.site_base = program->num_sites;
        program->num_sites +=
            static_cast<int64_t>(inst.collective->groups->groups.size());
      }
    }
    program->instructions.push_back(std::move(inst));
    ++i;
  }
  return std::shared_ptr<const DeviceProgram>(std::move(program));
}

int64_t CompiledProgramCount() {
  return compiled_program_count.load(std::memory_order_relaxed);
}

MemoryStats ComputeMemoryStats(const SpmdModule& spmd,
                               const DeviceProgram& program) {
  const MemoryPlan& plan = program.plan;
  MemoryStats stats;
  stats.num_devices = spmd.mesh.NumDevices();
  stats.values = static_cast<int64_t>(plan.values.size());
  stats.slots = static_cast<int64_t>(plan.slot_numels.size());
  stats.peak_arena_bytes = plan.arena_bytes;
  stats.peak_live_bytes = plan.peak_live_bytes;
  stats.unplanned_bytes = plan.unplanned_bytes;
  stats.slots_reused = plan.slots_reused;
  stats.in_place_ops = plan.in_place_ops;
  stats.total_arena_bytes = plan.arena_bytes * stats.num_devices;
  stats.fused_chains = program.fused_chains;
  stats.fused_instructions = program.fused_instructions;
  return stats;
}

}  // namespace exec
}  // namespace partir
