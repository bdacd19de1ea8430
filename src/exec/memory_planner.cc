#include "src/exec/memory_planner.h"

#include <algorithm>
#include <utility>

#include "src/ir/op_kind.h"
#include "src/support/check.h"

namespace partir {
namespace exec {
namespace {

constexpr int64_t kElementBytes = 4;  // runtime tensors store 4-byte floats

/** Size-class free lists: exact element count -> LIFO stack of slots. */
class FreeLists {
 public:
  void Release(int slot, int64_t numel) { lists_[numel].push_back(slot); }

  /** Pops a free slot of exactly `numel` elements, or -1. */
  int Take(int64_t numel) {
    auto it = lists_.find(numel);
    if (it == lists_.end() || it->second.empty()) return -1;
    int slot = it->second.back();
    it->second.pop_back();
    return slot;
  }

 private:
  std::map<int64_t, std::vector<int>> lists_;
};

/** True when instruction `kind` may write its result over a dying operand:
 *  elementwise kernels read each element before overwriting it. */
bool SupportsInPlace(OpKind kind) {
  return IsUnaryElementwise(kind) || IsBinaryElementwise(kind);
}

/** Element count of a value; a non-tensor value holds one scalar. */
int64_t NumelOf(const Value* value) {
  return value->type().IsTensor() ? value->tensor_type().NumElements() : 1;
}

}  // namespace

MemoryPlan PlanMemory(const Func& func) {
  const Block& body = func.body();
  PARTIR_CHECK(body.num_ops() > 0 &&
               body.terminator()->kind() == OpKind::kReturn)
      << "planning requires a returning function";
  const int num_instructions = body.num_ops() - 1;  // return is not executed

  MemoryPlan plan;
  plan.num_instructions = num_instructions;

  // Enumerate values: args first, then op results in program order.
  auto add_value = [&plan](const Value* value, int def) {
    ValuePlan vp;
    vp.value = value;
    vp.numel = NumelOf(value);
    vp.def = def;
    vp.last_use = def;  // never-read values die where they are born
    plan.index[value] = static_cast<int>(plan.values.size());
    plan.values.push_back(vp);
  };
  for (int i = 0; i < body.num_args(); ++i) add_value(body.arg(i), -1);
  for (int i = 0; i < num_instructions; ++i) {
    const Operation& op = *body.ops()[i];
    for (int r = 0; r < op.num_results(); ++r) add_value(op.result(r), i);
  }

  // Liveness: last_use is the largest reading instruction, and the return
  // op pins its operands to one-past-the-end so outputs are never
  // reclaimed.
  for (int i = 0; i < num_instructions; ++i) {
    for (const Value* operand : body.ops()[i]->operands()) {
      ValuePlan& vp = plan.values[plan.IndexOf(operand)];
      vp.last_use = std::max(vp.last_use, i);
    }
  }
  for (const Value* operand : body.terminator()->operands()) {
    plan.values[plan.IndexOf(operand)].last_use = num_instructions;
  }

  // Slot assignment: walk in program order, reusing reclaimed slots of the
  // exact element count. A dying operand is released only after the
  // instruction's results are placed — unless the instruction claims it in
  // place, in which case the result inherits the slot directly.
  FreeLists free;
  auto new_slot = [&plan](int64_t numel) {
    plan.slot_numels.push_back(numel);
    return static_cast<int>(plan.slot_numels.size()) - 1;
  };
  auto place = [&](ValuePlan& vp) {
    int reused = free.Take(vp.numel);
    if (reused >= 0) {
      vp.slot = reused;
      ++plan.slots_reused;
    } else {
      vp.slot = new_slot(vp.numel);
    }
  };

  for (int a = 0; a < body.num_args(); ++a) {
    place(plan.values[plan.IndexOf(body.arg(a))]);
  }
  // Arguments nothing ever reads free up before the first instruction.
  for (int a = 0; a < body.num_args(); ++a) {
    ValuePlan& vp = plan.values[plan.IndexOf(body.arg(a))];
    if (vp.last_use < 0) free.Release(vp.slot, vp.numel);
  }

  for (int i = 0; i < num_instructions; ++i) {
    const Operation& op = *body.ops()[i];

    // In-place: a single-result elementwise op adopts the slot of its
    // first operand that dies here. A value read again later — or
    // returned — never qualifies, because its last_use is past i.
    const Value* adopted = nullptr;
    if (op.num_results() == 1 && SupportsInPlace(op.kind())) {
      for (const Value* operand : op.operands()) {
        const ValuePlan& ovp = plan.values[plan.IndexOf(operand)];
        if (ovp.last_use == i &&
            ovp.numel == op.result()->tensor_type().NumElements()) {
          adopted = operand;
          break;
        }
      }
    }

    for (int r = 0; r < op.num_results(); ++r) {
      ValuePlan& vp = plan.values[plan.IndexOf(op.result(r))];
      if (r == 0 && adopted != nullptr) {
        vp.slot = plan.values[plan.IndexOf(adopted)].slot;
        vp.in_place = true;
        ++plan.in_place_ops;
      } else {
        place(vp);
      }
    }

    // Now — and only now — reclaim operands whose last use was this
    // instruction (each slot once, even if the value is read twice).
    for (const Value* operand : op.operands()) {
      if (operand == adopted) continue;  // slot lives on in the result
      ValuePlan& ovp = plan.values[plan.IndexOf(operand)];
      if (ovp.last_use == i && ovp.slot >= 0) {
        free.Release(ovp.slot, ovp.numel);
        ovp.slot = ~ovp.slot;  // mark released, undone below
      }
    }
    for (const Value* operand : op.operands()) {
      ValuePlan& ovp = plan.values[plan.IndexOf(operand)];
      if (ovp.slot < 0) ovp.slot = ~ovp.slot;
    }
    // Results nothing ever reads release immediately as well.
    for (int r = 0; r < op.num_results(); ++r) {
      ValuePlan& vp = plan.values[plan.IndexOf(op.result(r))];
      if (vp.last_use == i) free.Release(vp.slot, vp.numel);
    }
  }

  // Statistics. Arena footprint is the sum of slot sizes; peak live bytes
  // sweeps the merged per-slot occupancy intervals (an in-place handoff
  // keeps its slot continuously occupied, so the pair counts once).
  for (int64_t numel : plan.slot_numels) {
    plan.arena_bytes += numel * kElementBytes;
  }
  for (const ValuePlan& vp : plan.values) {
    plan.unplanned_bytes += vp.numel * kElementBytes;
  }
  std::map<int, std::vector<std::pair<int, int>>> intervals;
  for (const ValuePlan& vp : plan.values) {
    int start = std::max(vp.def, 0);
    int end = vp.last_use;
    if (end < start) continue;  // never-read argument: no live window
    intervals[vp.slot].push_back({start, end});
  }
  std::map<int, int64_t> delta;  // instruction boundary -> live-bytes change
  for (auto& entry : intervals) {
    auto& spans = entry.second;
    std::sort(spans.begin(), spans.end());
    int64_t bytes = plan.slot_numels[entry.first] * kElementBytes;
    int cur_start = spans[0].first, cur_end = spans[0].second;
    auto emit = [&](int start, int end) {
      delta[start] += bytes;
      delta[end + 1] -= bytes;
    };
    for (size_t s = 1; s < spans.size(); ++s) {
      if (spans[s].first <= cur_end) {  // overlap: in-place handoff
        cur_end = std::max(cur_end, spans[s].second);
      } else {
        emit(cur_start, cur_end);
        cur_start = spans[s].first;
        cur_end = spans[s].second;
      }
    }
    emit(cur_start, cur_end);
  }
  int64_t live = 0;
  for (const auto& entry : delta) {
    live += entry.second;
    plan.peak_live_bytes = std::max(plan.peak_live_bytes, live);
  }
  return plan;
}

}  // namespace exec
}  // namespace partir
