#include "src/analysis/memory_checker.h"

#include <algorithm>
#include <map>
#include <vector>

#include "src/analysis/dataflow.h"
#include "src/ir/verifier.h"
#include "src/support/str_util.h"

namespace partir {
namespace analysis {
namespace {

constexpr char kMemory[] = "memory-plan";
constexpr char kExec[] = "exec-program";

int64_t NumelOf(const Value* value) {
  return value->type().IsTensor() ? value->tensor_type().NumElements() : 1;
}

/** Names a value for diagnostics: "argument 2", or "op 3 (dot) result 0"
 *  by the position of its defining op. */
std::string ValueLoc(const Value* value) {
  const Operation* def = value->def();
  if (def == nullptr) return StrCat("argument ", value->arg_index());
  int index = -1;
  if (const Block* block = def->parent()) {
    for (int i = 0; i < block->num_ops() && index < 0; ++i) {
      if (block->ops()[i].get() == def) index = i;
    }
  }
  return StrCat(OpLocation(index, *def), " result ", value->result_index());
}

/** One slot occupancy to cross-check, over its recomputed window. */
struct Occupancy {
  const exec::ValuePlan* vp = nullptr;
  int start = 0;
  int end = 0;
};

}  // namespace

void CheckMemoryPlan(const Func& func, const exec::MemoryPlan& plan,
                     AnalysisReport& report) {
  report.checkers_run.push_back("memory-plan");
  const Block& body = func.body();
  if (body.num_ops() == 0 || body.terminator()->kind() != OpKind::kReturn) {
    report.Error(kMemory, StrCat("function '", func.name(), "'"),
                 "body is empty or not terminated by a return");
    return;
  }

  const int num_slots = static_cast<int>(plan.slot_numels.size());
  auto find_plan = [&](const Value* value) -> const exec::ValuePlan* {
    auto it = plan.index.find(value);
    if (it == plan.index.end()) return nullptr;
    if (it->second < 0 ||
        it->second >= static_cast<int>(plan.values.size())) {
      return nullptr;
    }
    const exec::ValuePlan* vp = &plan.values[it->second];
    return vp->value == value ? vp : nullptr;
  };

  // Shared per-value checks; returns false when the slot is unusable.
  int64_t planned_seen = 0;
  auto check_common = [&](const Value* value, const exec::ValuePlan* vp) {
    ++planned_seen;
    int64_t numel = NumelOf(value);
    if (vp->numel != numel) {
      report.Error(kMemory, ValueLoc(value),
                   StrCat("plan records ", vp->numel, " element(s), the "
                          "program type has ", numel));
    }
    if (vp->slot < 0 || vp->slot >= num_slots) {
      report.Error(kMemory, ValueLoc(value),
                   StrCat("arena slot ", vp->slot, " out of bounds (",
                          num_slots, " slot(s))"));
      return false;
    }
    if (plan.slot_numels[vp->slot] != numel) {
      report.Error(
          kMemory, ValueLoc(value),
          StrCat("placed in slot ", vp->slot, " of ",
                 plan.slot_numels[vp->slot], " element(s) but holds ", numel));
    }
    return true;
  };

  Liveness top = ComputeLiveness(body);
  if (plan.num_instructions != top.num_instructions) {
    report.Error(kMemory, StrCat("function '", func.name(), "'"),
                 StrCat("plan covers ", plan.num_instructions,
                        " instruction(s), the program has ",
                        top.num_instructions));
  }

  std::vector<Occupancy> occupancies;
  for (const LiveInterval& li : top.intervals) {
    const exec::ValuePlan* vp = find_plan(li.value);
    if (vp == nullptr) {
      report.Error(kMemory, ValueLoc(li.value),
                   "missing from the memory plan");
      continue;
    }
    if (vp->def != li.def || vp->last_use != li.last_use) {
      report
          .Error(kMemory, ValueLoc(li.value),
                 "plan liveness diverges from the recomputed live range")
          .notes = {StrCat("plan: [", vp->def, ", ", vp->last_use,
                           "], recomputed: [", li.def, ", ", li.last_use,
                           "]")};
    }
    if (!check_common(li.value, vp)) continue;
    if (li.last_use < li.def) continue;  // never-read arg: freed up front
    // The recomputed window, not the plan's claim.
    occupancies.push_back(Occupancy{vp, li.def, li.last_use});
  }

  if (planned_seen != static_cast<int64_t>(plan.values.size())) {
    report.Error(kMemory, StrCat("function '", func.name(), "'"),
                 StrCat("plan holds ", plan.values.size(),
                        " value(s), the program defines ", planned_seen));
  }

  // In-place adoptions: the result must overwrite an operand of its own
  // defining instruction that dies exactly at that instruction, in a slot
  // of the same element count.
  for (const exec::ValuePlan& vp : plan.values) {
    if (!vp.in_place) continue;
    const Value* value = vp.value;
    const LiveInterval* value_li = top.Find(value);
    if (value_li == nullptr) continue;  // already diagnosed
    const Operation* def_op = value->def();
    if (def_op == nullptr) {
      report.Error(kMemory, ValueLoc(value),
                   "block argument marked as an in-place result");
      continue;
    }
    bool legal = false;
    for (const Value* operand : def_op->operands()) {
      const exec::ValuePlan* op_vp = find_plan(operand);
      const LiveInterval* op_li = top.Find(operand);
      if (op_vp == nullptr || op_li == nullptr) continue;
      if (op_vp->slot == vp.slot && op_li->last_use == value_li->def &&
          op_vp->numel == vp.numel) {
        legal = true;
        break;
      }
    }
    if (!legal) {
      report
          .Error(kMemory, ValueLoc(value),
                 "illegal in-place adoption: no operand of the defining "
                 "instruction dies there in the result's slot")
          .notes = {StrCat("result slot ", vp.slot,
                           "; an in-place operand must share it, die at "
                           "the defining instruction, and match its ",
                           vp.numel, " element(s)")};
    }
  }

  // Slot-sharing: group occupancies per slot and cross-check pairwise.
  std::map<int, std::vector<Occupancy>> by_slot;
  for (const Occupancy& occ : occupancies) {
    by_slot[occ.vp->slot].push_back(occ);
  }
  for (auto& entry : by_slot) {
    std::vector<Occupancy>& occs = entry.second;
    std::sort(occs.begin(), occs.end(),
              [](const Occupancy& a, const Occupancy& b) {
                if (a.start != b.start) return a.start < b.start;
                return a.end < b.end;
              });
    for (size_t a = 0; a < occs.size(); ++a) {
      for (size_t b = a + 1; b < occs.size(); ++b) {
        const Occupancy& first = occs[a];
        const Occupancy& second = occs[b];
        if (second.start > first.end) continue;  // disjoint
        if (second.start == first.end && second.vp->in_place) {
          continue;  // legal in-place handoff at the boundary
        }
        report
            .Error(kMemory, ValueLoc(second.vp->value),
                   StrCat("overlapping live ranges share slot ", entry.first,
                          " with ", ValueLoc(first.vp->value)))
            .notes = {StrCat(ValueLoc(first.vp->value), " live over [",
                             first.start, ", ", first.end, "], ",
                             ValueLoc(second.vp->value), " live over [",
                             second.start, ", ", second.end, "]")};
      }
    }
  }
}

namespace {

/** The lowest and highest element offsets a strided nest reaches. */
struct Reach {
  int64_t lo = 0;
  int64_t hi = 0;
};

/** Widens `reach` by what `loops` adds along operand a (or b). */
void Extend(const StridedLoops& loops, bool operand_b, Reach& reach) {
  for (const StridedLoops::Dim& dim : loops.dims) {
    const int64_t step =
        (dim.size - 1) * (operand_b ? dim.b_stride : dim.a_stride);
    (step < 0 ? reach.lo : reach.hi) += step;
  }
}

/**
 * The strided-kernel invariants: the result slot is none of the operand
 * slots (the kernel reads operands while writing the result), and every
 * view stays inside the slot it reads or writes.
 */
void CheckStridedInstruction(const exec::Instruction& inst,
                             const exec::MemoryPlan& plan,
                             const std::string& loc, AnalysisReport& report) {
  if (inst.result_slots.empty()) return;
  for (size_t j = 0; j < inst.operand_slots.size(); ++j) {
    if (inst.operand_slots[j] == inst.result_slots[0]) {
      report.Error(kExec, loc,
                   StrCat("result slot ", inst.result_slots[0],
                          " is also operand ", j,
                          "'s slot: the strided kernel would overwrite its "
                          "input while reading it"));
    }
  }
  if (inst.strided == nullptr) return;
  const exec::StridedKernel& kernel = *inst.strided;
  using Kind = exec::StridedKernel::Kind;
  std::vector<Reach> reads;  // per operand
  Reach writes;
  int64_t iterations = 0;
  if (kernel.kind == Kind::kDot) {
    reads.resize(2);
    Extend(kernel.batch, false, reads[0]);
    Extend(kernel.lhs_free, false, reads[0]);
    Extend(kernel.contract, false, reads[0]);
    Extend(kernel.batch, true, reads[1]);
    Extend(kernel.rhs_free, false, reads[1]);
    Extend(kernel.contract, true, reads[1]);
    const int64_t outputs = kernel.batch.NumElements() *
                            kernel.lhs_free.NumElements() *
                            kernel.rhs_free.NumElements();
    writes.hi = outputs - 1;
    iterations = outputs * kernel.contract.NumElements();
  } else {
    reads.resize(1);
    Extend(kernel.loops, false, reads[0]);
    iterations = kernel.loops.NumElements();
    if (kernel.kind == Kind::kCopy) {
      writes.hi = iterations - 1;
    } else {
      Extend(kernel.loops, true, writes);
    }
  }
  if (iterations == 0) return;
  const int num_slots = static_cast<int>(plan.slot_numels.size());
  auto check = [&](const Reach& reach, int slot, const std::string& what) {
    if (slot < 0 || slot >= num_slots) return;  // reported as out of bounds
    const int64_t numel = plan.slot_numels[slot];
    if (reach.lo < 0 || reach.hi >= numel) {
      report.Error(kExec, loc,
                   StrCat("strided view reaches elements [", reach.lo, ", ",
                          reach.hi, "] of ", what, " slot ", slot,
                          ", which holds ", numel));
    }
  };
  for (size_t j = 0; j < reads.size(); ++j) {
    if (j >= inst.operand_slots.size()) {
      report.Error(kExec, loc,
                   StrCat("strided kernel reads operand ", j,
                          " the instruction does not have"));
      continue;
    }
    check(reads[j], inst.operand_slots[j], StrCat("operand ", j, "'s"));
  }
  check(writes, inst.result_slots[0], "the result's");
}

/**
 * Stream-level wiring checks for every instruction, and that their
 * rendezvous sites add up to the program's.
 */
void CheckInstructions(const exec::DeviceProgram& program,
                       AnalysisReport& report) {
  const exec::MemoryPlan& plan = program.plan;
  const int num_slots = static_cast<int>(plan.slot_numels.size());
  auto slot_ok = [&](int slot) { return slot >= 0 && slot < num_slots; };
  int64_t sites_expected = 0;
  for (size_t i = 0; i < program.instructions.size(); ++i) {
    const exec::Instruction& inst = program.instructions[i];
    std::string loc =
        StrCat("instruction ", i, " (", OpKindName(inst.kind), ")");
    if (inst.operand_dies.size() != inst.operand_slots.size()) {
      report.Error(kExec, loc,
                   StrCat("operand_dies covers ", inst.operand_dies.size(),
                          " operand(s), the instruction has ",
                          inst.operand_slots.size()));
    }
    for (int slot : inst.operand_slots) {
      if (!slot_ok(slot)) {
        report.Error(kExec, loc, StrCat("operand slot ", slot,
                                        " out of bounds"));
      }
    }
    for (int slot : inst.result_slots) {
      if (!slot_ok(slot)) {
        report.Error(kExec, loc, StrCat("result slot ", slot,
                                        " out of bounds"));
      }
    }
    int64_t numel = 1;
    for (int64_t d : inst.result_dims) numel *= d;
    if (numel != inst.result_numel) {
      report.Error(kExec, loc,
                   StrCat("result_numel ", inst.result_numel,
                          " disagrees with result_dims product ", numel));
    }
    if (!inst.result_slots.empty() && slot_ok(inst.result_slots[0]) &&
        plan.slot_numels[inst.result_slots[0]] != inst.result_numel) {
      report.Error(
          kExec, loc,
          StrCat("writes ", inst.result_numel, " element(s) into slot ",
                 inst.result_slots[0], " of ",
                 plan.slot_numels[inst.result_slots[0]]));
    }
    if (inst.in_place_operand != -1) {
      if (inst.in_place_operand < 0 ||
          inst.in_place_operand >=
              static_cast<int>(inst.operand_slots.size())) {
        report.Error(kExec, loc,
                     StrCat("in_place_operand ", inst.in_place_operand,
                            " is not an operand index"));
      } else {
        if (inst.result_slots.empty() ||
            inst.operand_slots[inst.in_place_operand] !=
                inst.result_slots[0]) {
          report.Error(kExec, loc,
                       "in-place operand and result occupy different slots");
        }
        if (inst.in_place_operand <
                static_cast<int>(inst.operand_dies.size()) &&
            inst.operand_dies[inst.in_place_operand]) {
          report.Error(kExec, loc,
                       "in-place operand flagged as dying: the executor "
                       "would move the buffer out from under the result");
        }
      }
    }
    if (inst.strided != nullptr || inst.kind == OpKind::kDot ||
        inst.kind == OpKind::kReduce || inst.kind == OpKind::kTranspose ||
        inst.kind == OpKind::kBroadcastInDim) {
      CheckStridedInstruction(inst, plan, loc, report);
    }
    if (inst.collective != nullptr && inst.collective->groups != nullptr) {
      int64_t groups = static_cast<int64_t>(inst.collective->groups->groups.size());
      if (inst.site_base < 0 || inst.site_base + groups > program.num_sites) {
        report.Error(kExec, loc,
                     StrCat("rendezvous sites [", inst.site_base, ", ",
                            inst.site_base + groups,
                            ") exceed the program's ", program.num_sites,
                            " site(s)"));
      }
      sites_expected += groups;
    }
  }
  if (sites_expected != program.num_sites) {
    report.Error(kExec, "",
                 StrCat("instructions claim ", sites_expected,
                        " rendezvous site(s), the program reserves ",
                        program.num_sites));
  }
}

}  // namespace

void CheckDeviceProgram(const SpmdModule& spmd,
                        const exec::DeviceProgram& program,
                        AnalysisReport& report) {
  report.checkers_run.push_back("exec-program");
  const Func* main = spmd.main();
  if (main == nullptr) {
    report.Error(kExec, "", "SPMD module has no main function");
    return;
  }
  CheckMemoryPlan(*main, program.plan, report);

  const int num_slots = static_cast<int>(program.plan.slot_numels.size());
  auto slot_ok = [&](int slot) { return slot >= 0 && slot < num_slots; };
  if (static_cast<int>(program.input_slots.size()) !=
      main->body().num_args()) {
    report.Error(kExec, "inputs",
                 StrCat("program wires ", program.input_slots.size(),
                        " input slot(s), the function takes ",
                        main->body().num_args(), " argument(s)"));
  }
  int num_outputs = main->body().num_ops() == 0
                        ? 0
                        : main->body().terminator()->num_operands();
  if (static_cast<int>(program.output_slots.size()) != num_outputs) {
    report.Error(kExec, "outputs",
                 StrCat("program wires ", program.output_slots.size(),
                        " output slot(s), the function returns ",
                        num_outputs, " value(s)"));
  }
  for (int slot : program.input_slots) {
    if (!slot_ok(slot)) {
      report.Error(kExec, "inputs", StrCat("input slot ", slot,
                                           " out of bounds"));
    }
  }
  for (int slot : program.output_slots) {
    if (!slot_ok(slot)) {
      report.Error(kExec, "outputs", StrCat("output slot ", slot,
                                            " out of bounds"));
    }
  }

  CheckInstructions(program, report);
}

}  // namespace analysis
}  // namespace partir
