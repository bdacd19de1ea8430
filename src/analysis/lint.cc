#include "src/analysis/lint.h"

#include <functional>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/ir/verifier.h"
#include "src/spmd/collectives.h"
#include "src/support/str_util.h"

namespace partir {
namespace analysis {
namespace {

constexpr char kDead[] = "dead-value";
constexpr char kRedundant[] = "redundant-collective";

void LintDeadValues(const Module& module, AnalysisReport& report) {
  for (const auto& func : module.funcs()) {
    if (func->body().num_ops() == 0) continue;
    std::set<const Value*> used;
    WalkOps(func->body(), [&](const Operation& op) {
      for (const Value* operand : op.operands()) used.insert(operand);
    });
    std::function<void(const Block&, const std::string&)> walk =
        [&](const Block& block, const std::string& prefix) {
          for (int i = 0; i + 1 < block.num_ops(); ++i) {
            const Operation& op = *block.ops()[i];
            bool any_used = op.num_results() == 0;
            for (int r = 0; r < op.num_results(); ++r) {
              if (used.count(op.result(r))) any_used = true;
            }
            if (!any_used) {
              report.Warning(kDead, StrCat(prefix, OpLocation(i, op)),
                             "no result of this op is ever used");
            }
            for (int r = 0; r < op.num_regions(); ++r) {
              walk(op.region(r).block(),
                   StrCat(prefix, OpLocation(i, op), ", "));
            }
          }
        };
    walk(func->body(), "");
  }
}

using AxisSet = std::set<std::string>;

/** The axes `op`'s result is (provably) replicated along, given the axes
 *  `operands` are. */
AxisSet ReplicatedAxes(const Operation& op,
                       const std::vector<const AxisSet*>& operands,
                       const AxisSet& all_axes) {
  // Constants / iota (and loops, which the device programs refuse): every
  // device materializes the same value.
  if (operands.empty()) return all_axes;
  AxisSet axes = *operands[0];
  switch (op.kind()) {
    case OpKind::kAllReduce:
    case OpKind::kAllGather:
      for (const std::string& axis : CollectiveGroupAxes(op)) {
        axes.insert(axis);
      }
      return axes;
    case OpKind::kAllSlice:
    case OpKind::kReduceScatter:
    case OpKind::kAllToAll:
      for (const std::string& axis : CollectiveGroupAxes(op)) {
        axes.erase(axis);
      }
      return axes;
    default:
      // Deterministic f(replicated...) stays replicated on the axes every
      // operand shares.
      for (const AxisSet* other : operands) {
        AxisSet meet;
        for (const std::string& axis : *other) {
          if (axes.count(axis)) meet.insert(axis);
        }
        axes = std::move(meet);
      }
      return axes;
  }
}

/** Warns when collective `op` (op `i`) is provably redundant, given the
 *  axes its operand is replicated along. */
void WarnIfRedundant(int i, const Operation& op, const AxisSet& operand,
                     AnalysisReport& report) {
  const std::string location = OpLocation(i, op);
  std::vector<std::string> axes = CollectiveGroupAxes(op);
  if (axes.empty()) {
    report.Warning(kRedundant, location,
                   "collective over an empty axis list is a no-op");
    return;
  }
  // Inverse-pair round trips: the boundary-gather realization plus a
  // downstream re-tiling can chain all_gather and all_slice with the same
  // axes_per_dim; fuse-gather-slice rewrites those away, so a survivor is
  // pure redundant data motion.
  const Operation* producer = op.operand(0)->def();
  if (producer != nullptr &&
      ((op.kind() == OpKind::kAllSlice &&
        producer->kind() == OpKind::kAllGather) ||
       (op.kind() == OpKind::kAllGather &&
        producer->kind() == OpKind::kAllSlice)) &&
      op.attrs().Get<AxesPerDim>("axes_per_dim") ==
          producer->attrs().Get<AxesPerDim>("axes_per_dim")) {
    report.Warning(kRedundant, location,
                   StrCat("undoes the ", OpKindName(producer->kind()),
                          " it consumes (gather/slice round-trip survived "
                          "fuse-gather-slice)"));
  }
  for (const std::string& axis : axes) {
    if (!operand.count(axis)) return;
  }
  if (op.kind() == OpKind::kAllReduce) {
    report
        .Warning(kRedundant, location,
                 "all_reduce of a value already replicated along its axes "
                 "(back-to-back all_reduce?)")
        .notes = {"for reduction=sum this is not even a no-op: it "
                  "multiplies the value by the group size"};
  } else if (op.kind() == OpKind::kAllGather) {
    report.Warning(kRedundant, location,
                   "all_gather of a value already replicated along the "
                   "gather axes concatenates identical copies");
  } else if (op.kind() == OpKind::kReduceScatter) {
    // A reduce_scatter formed over an already-reduced value is the
    // double-reduction hazard of the rs-formation + boundary-scatter path:
    // every device holds the full sum, so re-reducing scales the result by
    // the group size.
    report
        .Warning(kRedundant, location,
                 "reduce_scatter of a value already replicated along its "
                 "axes re-reduces identical copies")
        .notes = {"for reduction=sum this scales the result by the group "
                  "size; all_slice is the re-tiling that was probably "
                  "intended"};
  }
}

/** One forward pass over each function body, tracking the axes every value
 *  is replicated along (arguments are assumed sharded). */
void LintRedundantCollectives(const Module& module, const Mesh& mesh,
                              AnalysisReport& report) {
  AxisSet all_axes;
  for (const auto& axis : mesh.axes()) all_axes.insert(axis.name);
  const AxisSet sharded;
  for (const auto& func : module.funcs()) {
    std::map<const Value*, AxisSet> replicated;
    for (int i = 0; i < func->body().num_ops(); ++i) {
      const Operation& op = *func->body().ops()[i];
      std::vector<const AxisSet*> operands;
      for (const Value* operand : op.operands()) {
        auto it = replicated.find(operand);
        operands.push_back(it == replicated.end() ? &sharded : &it->second);
      }
      if (IsCollective(op.kind())) {
        WarnIfRedundant(i, op, *operands[0], report);
      }
      AxisSet axes = ReplicatedAxes(op, operands, all_axes);
      for (int r = 0; r < op.num_results(); ++r) {
        replicated[op.result(r)] = axes;
      }
    }
  }
}

}  // namespace

void LintModule(const Module& module, const Mesh* mesh,
                AnalysisReport& report) {
  report.checkers_run.push_back("lint");
  LintDeadValues(module, report);
  if (mesh != nullptr) LintRedundantCollectives(module, *mesh, report);
}

}  // namespace analysis
}  // namespace partir
