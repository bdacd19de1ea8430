#include "src/analysis/lint.h"

#include <functional>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "src/analysis/dataflow.h"
#include "src/spmd/collectives.h"
#include "src/support/str_util.h"

namespace partir {
namespace analysis {
namespace {

constexpr char kLint[] = "ir-lint";
constexpr char kDead[] = "dead-value";
constexpr char kRedundant[] = "redundant-collective";

std::string Loc(const Operation& op) {
  std::string name =
      op.num_results() > 0 ? op.result(0)->name() : std::string("?");
  return StrCat(OpKindName(op.kind()), " '%", name, "'");
}

/** Abort-free attribute pointer: null when missing or mistyped. */
template <typename T>
const T* AttrPtr(const Operation& op, const std::string& name) {
  auto it = op.attrs().raw().find(name);
  if (it == op.attrs().raw().end()) return nullptr;
  return std::get_if<T>(&it->second);
}

template <typename T>
bool RequireAttr(const Operation& op, const std::string& name,
                 AnalysisReport& report, const T** out) {
  *out = AttrPtr<T>(op, name);
  if (*out == nullptr) {
    report.Error(kLint, Loc(op),
                 StrCat("missing or mistyped attribute '", name, "'"));
    return false;
  }
  return true;
}

void LintCollective(const Operation& op, const Mesh* mesh,
                    AnalysisReport& report) {
  if (op.num_operands() != 1) {
    report.Error(kLint, Loc(op),
                 StrCat("collective takes 1 operand, has ",
                        op.num_operands()));
    return;
  }
  if (!op.operand(0)->type().IsTensor() || op.num_results() != 1 ||
      !op.result(0)->type().IsTensor()) {
    report.Error(kLint, Loc(op), "collective operand/result must be tensors");
    return;
  }
  const int rank = op.operand(0)->tensor_type().rank();
  std::vector<std::string> axes;
  switch (op.kind()) {
    case OpKind::kAllSlice:
    case OpKind::kAllGather:
    case OpKind::kReduceScatter: {
      const AxesPerDim* apd = nullptr;
      if (!RequireAttr(op, "axes_per_dim", report, &apd)) return;
      if (static_cast<int>(apd->size()) != rank) {
        report.Error(kLint, Loc(op),
                     StrCat("axes_per_dim lists ", apd->size(),
                            " dim(s), the operand has rank ", rank));
      }
      axes = FlattenAxesPerDim(*apd);
      break;
    }
    case OpKind::kAllReduce:
    case OpKind::kAllToAll: {
      const std::vector<std::string>* axes_attr = nullptr;
      if (!RequireAttr(op, "axes", report, &axes_attr)) return;
      axes = *axes_attr;
      break;
    }
    default:
      return;
  }
  if (op.kind() == OpKind::kAllReduce || op.kind() == OpKind::kReduceScatter) {
    const std::string* reduction = nullptr;
    if (RequireAttr(op, "reduction", report, &reduction) &&
        *reduction != "sum" && *reduction != "max") {
      report.Error(kLint, Loc(op),
                   StrCat("unknown reduction '", *reduction, "'"));
    }
  }
  if (op.kind() == OpKind::kAllToAll) {
    for (const char* name : {"slice_dim", "concat_dim"}) {
      const int64_t* dim = nullptr;
      if (RequireAttr(op, name, report, &dim) &&
          (*dim < 0 || *dim >= rank)) {
        report.Error(kLint, Loc(op),
                     StrCat(name, " ", *dim, " out of range for rank ",
                            rank));
      }
    }
  }
  std::set<std::string> seen;
  for (const std::string& axis : axes) {
    if (!seen.insert(axis).second) {
      report.Error(kLint, Loc(op), StrCat("duplicate mesh axis '", axis,
                                          "' in the group axes"));
    }
    if (mesh != nullptr && !mesh->HasAxis(axis)) {
      report.Error(kLint, Loc(op), StrCat("unknown mesh axis '", axis, "'"));
    }
  }
}

void LintStructure(const Module& module, const Mesh* mesh,
                   AnalysisReport& report) {
  for (const auto& func : module.funcs()) {
    if (func->body().num_ops() == 0 ||
        func->body().terminator()->kind() != OpKind::kReturn) {
      report.Error(kLint, StrCat("function '", func->name(), "'"),
                   "body is empty or not terminated by a return");
      continue;
    }
    std::function<void(const Block&, int)> walk = [&](const Block& block,
                                                      int depth) {
      for (int i = 0; i < block.num_ops(); ++i) {
        const Operation& op = *block.ops()[i];
        const bool is_terminator = i == block.num_ops() - 1;
        switch (op.kind()) {
          case OpKind::kReturn:
            if (depth > 0) {
              report.Error(kLint, Loc(op), "return inside a loop region");
            } else if (!is_terminator) {
              report.Error(kLint, Loc(op), "return before the end of the "
                                           "function body");
            }
            break;
          case OpKind::kYield:
            if (depth == 0) {
              report.Error(kLint, Loc(op),
                           "yield outside a loop region");
            } else if (!is_terminator) {
              report.Error(kLint, Loc(op),
                           "yield before the end of its region");
            }
            break;
          case OpKind::kLoop: {
            if (op.num_regions() != 1) {
              report.Error(kLint, Loc(op),
                           StrCat("loop carries ", op.num_regions(),
                                  " region(s), expected 1"));
              break;
            }
            const Block& body = op.region(0).block();
            if (body.num_args() != 1 || !body.arg(0)->type().IsRange()) {
              report.Error(kLint, Loc(op),
                           "loop body must take a single range argument");
            } else {
              const RangeType& range = body.arg(0)->type().range();
              if (range.size() < 1) {
                report.Error(kLint, Loc(op),
                             StrCat("loop trip count ", range.size(),
                                    " < 1"));
              }
              if (mesh != nullptr && !range.axis().empty()) {
                if (!mesh->HasAxis(range.axis())) {
                  report.Error(kLint, Loc(op),
                               StrCat("loop ranges over unknown mesh axis '",
                                      range.axis(), "'"));
                } else if (mesh->AxisSize(range.axis()) != range.size()) {
                  report.Error(
                      kLint, Loc(op),
                      StrCat("trip count ", range.size(),
                             " disagrees with mesh axis '", range.axis(),
                             "' of size ", mesh->AxisSize(range.axis())));
                }
              }
            }
            if (body.num_ops() == 0 ||
                body.terminator()->kind() != OpKind::kYield) {
              report.Error(kLint, Loc(op),
                           "loop body is empty or not terminated by yield");
            } else if (body.terminator()->num_operands() !=
                       op.num_results()) {
              report.Error(
                  kLint, Loc(op),
                  StrCat("yield carries ",
                         body.terminator()->num_operands(),
                         " value(s), the loop has ", op.num_results(),
                         " result(s)"));
            }
            const std::string* action = nullptr;
            if (RequireAttr(op, "action", report, &action) &&
                *action != "any" && *action != "sum" && *action != "tile") {
              report.Error(kLint, Loc(op),
                           StrCat("unknown loop action '", *action, "'"));
            }
            if (action != nullptr && *action == "tile") {
              const int64_t* tile_dim = nullptr;
              if (RequireAttr(op, "tile_dim", report, &tile_dim) &&
                  op.num_results() > 0 &&
                  op.result(0)->type().IsTensor() &&
                  (*tile_dim < 0 ||
                   *tile_dim >= op.result(0)->tensor_type().rank())) {
                report.Error(kLint, Loc(op),
                             StrCat("tile_dim ", *tile_dim,
                                    " out of range for the loop result"));
              }
            }
            break;
          }
          case OpKind::kPSlice: {
            if (depth == 0) {
              report.Error(kLint, Loc(op), "slice outside a loop region");
            }
            if (op.num_operands() != 2 ||
                !op.operand(0)->type().IsTensor() ||
                !op.operand(1)->type().IsRange()) {
              report.Error(kLint, Loc(op),
                           "slice takes (tensor, range) operands");
              break;
            }
            const int64_t* dim = nullptr;
            if (!RequireAttr(op, "dim", report, &dim)) break;
            const TensorType& in = op.operand(0)->tensor_type();
            if (*dim < 0 || *dim >= in.rank()) {
              report.Error(kLint, Loc(op),
                           StrCat("slice dim ", *dim,
                                  " out of range for rank ", in.rank()));
            } else {
              int64_t count = op.operand(1)->type().range().size();
              if (count < 1 || in.dim(*dim) % count != 0) {
                report.Error(
                    kLint, Loc(op),
                    StrCat("dim ", *dim, " of size ", in.dim(*dim),
                           " is not divisible into ", count, " chunk(s)"));
              }
            }
            break;
          }
          default:
            if (IsCollectiveKind(op.kind())) {
              if (depth > 0) {
                report.Error(kLint, Loc(op),
                             "collective inside a loop region");
              }
              LintCollective(op, mesh, report);
            }
            break;
        }
        if (op.num_regions() > 0 && op.kind() != OpKind::kLoop) {
          report.Error(kLint, Loc(op), "only loop ops may carry regions");
        }
        for (int r = 0; r < op.num_regions(); ++r) {
          walk(op.region(r).block(), depth + 1);
        }
      }
    };
    walk(func->body(), 0);
  }
}

void LintDeadValues(const Module& module, AnalysisReport& report) {
  for (const auto& func : module.funcs()) {
    if (func->body().num_ops() == 0) continue;
    std::set<const Value*> used;
    WalkOps(func->body(), [&](const Operation& op) {
      for (const Value* operand : op.operands()) used.insert(operand);
    });
    std::function<void(const Block&)> walk = [&](const Block& block) {
      for (int i = 0; i + 1 < block.num_ops(); ++i) {
        const Operation& op = *block.ops()[i];
        bool any_used = op.num_results() == 0;
        for (int r = 0; r < op.num_results(); ++r) {
          if (used.count(op.result(r))) any_used = true;
        }
        if (!any_used) {
          report.Warning(kDead, Loc(op),
                         "no result of this op is ever used");
        }
        for (int r = 0; r < op.num_regions(); ++r) {
          walk(op.region(r).block());
        }
      }
    };
    walk(func->body());
  }
}

/** Mesh axes a value is (provably) replicated along. */
struct ReplState {
  std::set<std::string> axes;
};

void LintRedundantCollectives(const Module& module, const Mesh& mesh,
                              AnalysisReport& report) {
  std::set<std::string> all_axes;
  for (const auto& axis : mesh.axes()) all_axes.insert(axis.name);

  auto axes_of = [](const Operation& op) -> std::vector<std::string> {
    StatusOr<std::vector<std::string>> axes = CollectiveGroupAxes(op);
    return axes.ok() ? std::move(axes).value() : std::vector<std::string>{};
  };

  for (const auto& func : module.funcs()) {
    if (func->body().num_ops() == 0) continue;
    auto states = RunForwardDataflow<ReplState>(
        func->body(),
        [](const Value&) { return ReplState{}; },  // args: assume sharded
        [&](const Operation& op,
            const std::vector<const ReplState*>& operands) {
          ReplState state;
          if (op.num_operands() == 0) {
            // Constants / iota: every device materializes the same value.
            state.axes = all_axes;
          } else {
            switch (op.kind()) {
              case OpKind::kAllReduce:
              case OpKind::kAllGather:
                state = *operands[0];
                for (const std::string& axis : axes_of(op)) {
                  state.axes.insert(axis);
                }
                break;
              case OpKind::kAllSlice:
              case OpKind::kReduceScatter:
              case OpKind::kAllToAll:
                state = *operands[0];
                for (const std::string& axis : axes_of(op)) {
                  state.axes.erase(axis);
                }
                break;
              case OpKind::kLoop:
              case OpKind::kPSlice:
                break;  // device-dependent: bottom
              default: {
                // Deterministic f(replicated...) stays replicated on the
                // axes every operand shares.
                state = *operands[0];
                for (size_t j = 1; j < operands.size(); ++j) {
                  std::set<std::string> meet;
                  for (const std::string& axis : operands[j]->axes) {
                    if (state.axes.count(axis)) meet.insert(axis);
                  }
                  state.axes = std::move(meet);
                }
                break;
              }
            }
          }
          return std::vector<ReplState>(op.num_results(), state);
        });

    for (const auto& op : func->body().ops()) {
      if (!IsCollectiveKind(op->kind()) || op->num_operands() != 1) continue;
      std::vector<std::string> axes = axes_of(*op);
      auto it = states.find(op->operand(0));
      if (it == states.end()) continue;
      if (axes.empty()) {
        report.Warning(kRedundant, Loc(*op),
                       "collective over an empty axis list is a no-op");
        continue;
      }
      // Inverse-pair round trips: the boundary-gather realization plus a
      // downstream re-tiling can chain all_gather and all_slice with the
      // same axes_per_dim; fuse-gather-slice rewrites those away, so a
      // survivor is pure redundant data motion.
      const Operation* producer =
          op->operand(0)->IsBlockArg() ? nullptr : op->operand(0)->def();
      if (producer != nullptr &&
          ((op->kind() == OpKind::kAllSlice &&
            producer->kind() == OpKind::kAllGather) ||
           (op->kind() == OpKind::kAllGather &&
            producer->kind() == OpKind::kAllSlice))) {
        const AxesPerDim* outer = AttrPtr<AxesPerDim>(*op, "axes_per_dim");
        const AxesPerDim* inner =
            AttrPtr<AxesPerDim>(*producer, "axes_per_dim");
        if (outer != nullptr && inner != nullptr && *outer == *inner) {
          report.Warning(
              kRedundant, Loc(*op),
              StrCat("undoes the ", OpKindName(producer->kind()), " '%",
                     producer->result(0)->name(),
                     "' it consumes (gather/slice round-trip survived "
                     "fuse-gather-slice)"));
        }
      }
      bool replicated = true;
      for (const std::string& axis : axes) {
        if (!it->second.axes.count(axis)) replicated = false;
      }
      if (!replicated) continue;
      if (op->kind() == OpKind::kAllReduce) {
        report
            .Warning(kRedundant, Loc(*op),
                     "all_reduce of a value already replicated along its "
                     "axes (back-to-back all_reduce?)")
            .notes = {"for reduction=sum this is not even a no-op: it "
                      "multiplies the value by the group size"};
      } else if (op->kind() == OpKind::kAllGather) {
        report.Warning(kRedundant, Loc(*op),
                       "all_gather of a value already replicated along the "
                       "gather axes concatenates identical copies");
      } else if (op->kind() == OpKind::kReduceScatter) {
        // A reduce_scatter formed over an already-reduced value is the
        // double-reduction hazard of the rs-formation + boundary-scatter
        // path: every device holds the full sum, so re-reducing scales the
        // result by the group size.
        report
            .Warning(kRedundant, Loc(*op),
                     "reduce_scatter of a value already replicated along "
                     "its axes re-reduces identical copies")
            .notes = {"for reduction=sum this scales the result by the "
                      "group size; all_slice is the re-tiling that was "
                      "probably intended"};
      }
    }
  }
}

}  // namespace

void LintModule(const Module& module, const Mesh* mesh,
                AnalysisReport& report) {
  report.checkers_run.push_back("lint");
  LintStructure(module, mesh, report);
  LintDeadValues(module, report);
  if (mesh != nullptr) LintRedundantCollectives(module, *mesh, report);
}

}  // namespace analysis
}  // namespace partir
