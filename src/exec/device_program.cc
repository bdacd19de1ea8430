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

/** Single-result elementwise op with no regions: fused-chain candidate. */
bool IsElementwiseOp(const Operation& op) {
  return (IsUnaryElementwise(op.kind()) || IsBinaryElementwise(op.kind())) &&
         op.num_results() == 1 && op.num_regions() == 0;
}

/** Typed validation of one loop region op, recursively. */
Status ValidateLoopOp(const Func& func, const Operation& op) {
  if (op.kind() != OpKind::kLoop) {
    return InvalidArgumentError(
        "compiled backend cannot execute region op '", OpKindName(op.kind()),
        "' in '", func.name(), "'");
  }
  if (op.num_regions() != 1 || op.num_results() != 1) {
    return InvalidArgumentError("loop in '", func.name(),
                                "' must have one region and one result");
  }
  const Block& body = op.region(0).block();
  if (body.num_args() < 1 || !body.arg(0)->type().IsRange()) {
    return InvalidArgumentError("loop body in '", func.name(),
                                "' must take a range argument");
  }
  if (body.num_ops() == 0 || body.terminator()->kind() != OpKind::kYield ||
      body.terminator()->num_operands() != 1) {
    return InvalidArgumentError("loop body in '", func.name(),
                                "' must yield exactly one value");
  }
  const std::string& action = op.attrs().Get<std::string>("action");
  if (action != "any" && action != "sum" && action != "tile") {
    return InvalidArgumentError("unknown loop action '", action, "' in '",
                                func.name(), "'");
  }
  for (const auto& inner : body.ops()) {
    if (IsCollective(inner->kind())) {
      return InvalidArgumentError(
          "compiled backend cannot execute collective '",
          OpKindName(inner->kind()), "' inside a loop region in '",
          func.name(), "'");
    }
    if (inner->num_regions() > 0) {
      PARTIR_RETURN_IF_ERROR(ValidateLoopOp(func, *inner));
    }
  }
  return Status::Ok();
}

/**
 * The liveness-independent part of one instruction record: slots, shape,
 * in-place adoption from the plan, baked constants and kernel tags. Used
 * for top-level and loop-body instructions alike.
 */
Instruction BuildInstruction(const Operation& op, const MemoryPlan& plan) {
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
    const ValuePlan& ovp = plan.values[plan.IndexOf(op.operand(j))];
    inst.operand_slots.push_back(ovp.slot);
    inst.operand_dies.push_back(false);
    if (result0.in_place && ovp.slot == result0.slot &&
        inst.in_place_operand < 0) {
      inst.in_place_operand = j;
    }
  }

  if (op.num_operands() == 0 && op.num_regions() == 0) {
    // Constants / iota: materialize the value once at compile time.
    std::vector<Tensor> baked = EvalOp(op, {});
    inst.baked = std::make_shared<const Tensor>(std::move(baked[0]));
  }
  inst.strided = MakeStridedKernel(op);
  if (op.kind() == OpKind::kPSlice) {
    inst.pslice_dim = op.attrs().Get<int64_t>("dim");
    inst.pslice_count = op.operand(1)->type().range().size();
  }
  return inst;
}

/**
 * Length of the fusable elementwise chain starting at instruction `i` of
 * `block` (1 = no fusion). Each link's result must be elementwise, die
 * exactly at the next instruction, feed it, and keep the element count.
 */
int ChainLength(const Block& block, const MemoryPlan& plan, int i,
                int num_instructions) {
  const Operation* cur = block.ops()[i].get();
  if (!IsElementwiseOp(*cur)) return 1;
  const int64_t numel = cur->result()->tensor_type().NumElements();
  int len = 1;
  while (i + len < num_instructions) {
    const Operation* next = block.ops()[i + len].get();
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

/** Builds the fused instruction for the chain [i, i+len) of `block`. */
Instruction BuildChainInstruction(const Block& block, const MemoryPlan& plan,
                                  int i, int len) {
  auto slot_of = [&plan](const Value* v) {
    return plan.values[plan.IndexOf(v)].slot;
  };
  auto chain = std::make_shared<FusedChain>();
  chain->steps.reserve(len);

  const Operation& first = *block.ops()[i];
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
    const Operation& op = *block.ops()[i + s];
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
  const Operation& last = *block.ops()[i + len - 1];
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

/** Compiles one loop op into its trip-counted sub-program. */
std::shared_ptr<const LoopInfo> CompileLoopInfo(const Operation& loop_op,
                                                const MemoryPlan& plan,
                                                DeviceProgram& program) {
  auto info = std::make_shared<LoopInfo>();
  const std::string& action = loop_op.attrs().Get<std::string>("action");
  if (action == "any") {
    info->action = LoopInfo::Action::kAny;
  } else if (action == "sum") {
    bool is_max =
        loop_op.attrs().GetOr<std::string>("reduction", "sum") == "max";
    info->action = is_max ? LoopInfo::Action::kMax : LoopInfo::Action::kSum;
  } else {
    info->action = LoopInfo::Action::kTile;
    info->tile_dim = loop_op.attrs().Get<int64_t>("tile_dim");
  }

  const Block& body = loop_op.region(0).block();
  const Value* range_arg = body.arg(0);
  info->trip_count = range_arg->type().range().size();
  info->range_slot = plan.values[plan.IndexOf(range_arg)].slot;
  info->yield_slot =
      plan.values[plan.IndexOf(body.terminator()->operand(0))].slot;

  const int num_body = body.num_ops() - 1;
  int i = 0;
  while (i < num_body) {
    int len = ChainLength(body, plan, i, num_body);
    if (len >= 2) {
      info->body.push_back(BuildChainInstruction(body, plan, i, len));
      program.fused_chains += 1;
      program.fused_instructions += len;
      i += len;
      continue;
    }
    Instruction inst = BuildInstruction(*body.ops()[i], plan);
    if (body.ops()[i]->num_regions() > 0) {
      inst.loop = CompileLoopInfo(*body.ops()[i], plan, program);
    }
    info->body.push_back(std::move(inst));
    ++i;
  }
  return info;
}

}  // namespace

StatusOr<std::shared_ptr<const DeviceProgram>> CompileDeviceProgram(
    const SpmdModule& spmd) {
  compiled_program_count.fetch_add(1, std::memory_order_relaxed);
  const Func& func = *spmd.main();
  const Block& body = func.body();
  if (body.num_ops() == 0 || body.terminator()->kind() != OpKind::kReturn) {
    return InternalError("SPMD function '", func.name(),
                         "' has no return terminator");
  }
  for (const auto& op : body.ops()) {
    if (op->kind() == OpKind::kPSlice || op->kind() == OpKind::kYield) {
      return InvalidArgumentError(
          "PartIR:Core op '", OpKindName(op->kind()),
          "' outside a loop region in '", func.name(), "'");
    }
    if (op->num_regions() > 0) {
      PARTIR_RETURN_IF_ERROR(ValidateLoopOp(func, *op));
    }
  }

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
    int len = ChainLength(body, plan, i, plan.num_instructions);
    if (len >= 2) {
      program->instructions.push_back(
          BuildChainInstruction(body, plan, i, len));
      program->fused_chains += 1;
      program->fused_instructions += len;
      i += len;
      continue;
    }

    Instruction inst = BuildInstruction(op, plan);
    for (int j = 0; j < op.num_operands(); ++j) {
      const Value* operand = op.operand(j);
      const ValuePlan& ovp = plan.values[plan.IndexOf(operand)];
      bool first_occurrence = true;
      for (int k = 0; k < j; ++k) {
        if (op.operand(k) == operand) first_occurrence = false;
      }
      inst.operand_dies[j] = ovp.last_use == i && first_occurrence;
    }
    // The in-place operand's buffer is not reclaimable — it becomes the
    // result.
    if (inst.in_place_operand >= 0) {
      inst.operand_dies[inst.in_place_operand] = false;
    }

    if (op.num_regions() > 0) {
      inst.loop = CompileLoopInfo(op, plan, *program);
    }

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
