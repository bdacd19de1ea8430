#include "src/analysis/shape_checker.h"

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <variant>
#include <vector>

#include "src/analysis/dataflow.h"
#include "src/spmd/collectives.h"
#include "src/support/str_util.h"

namespace partir {
namespace analysis {
namespace {

constexpr char kShape[] = "shape-check";

/** The derived device-local shape of one value. */
struct ShapeState {
  bool known = false;
  std::vector<int64_t> dims;
};

std::string Loc(const Operation& op) {
  std::string name =
      op.num_results() > 0 ? op.result(0)->name() : std::string("?");
  return StrCat(OpKindName(op.kind()), " '%", name, "'");
}

std::string DimsStr(const std::vector<int64_t>& dims) {
  return StrCat("[", StrJoin(dims, "x"), "]");
}

template <typename T>
const T* AttrPtr(const Operation& op, const std::string& name) {
  auto it = op.attrs().raw().find(name);
  if (it == op.attrs().raw().end()) return nullptr;
  return std::get_if<T>(&it->second);
}

/** Product of the mesh sizes of `axes`; nullopt if any axis is unknown. */
std::optional<int64_t> AxisProduct(const Mesh& mesh,
                                   const std::vector<std::string>& axes) {
  int64_t product = 1;
  for (const std::string& axis : axes) {
    if (!mesh.HasAxis(axis)) return std::nullopt;
    product *= mesh.AxisSize(axis);
  }
  return product;
}

class ShapeDeriver {
 public:
  ShapeDeriver(const Mesh& mesh, AnalysisReport& report)
      : mesh_(mesh), report_(report) {}

  /**
   * Derives op's result-0 shape from operand shapes, reporting operand
   * disagreements / divisibility violations. nullopt = no opinion (unknown
   * op kind, malformed attrs — lint's findings — or unknown operands).
   */
  std::optional<std::vector<int64_t>> Derive(
      const Operation& op, const std::vector<const ShapeState*>& operands) {
    auto in = [&](int i) -> const std::vector<int64_t>* {
      if (i >= static_cast<int>(operands.size()) || !operands[i]->known) {
        return nullptr;
      }
      return &operands[i]->dims;
    };
    switch (op.kind()) {
      case OpKind::kNeg:
      case OpKind::kExp:
      case OpKind::kLog:
      case OpKind::kTanh:
      case OpKind::kRsqrt:
      case OpKind::kSqrt:
      case OpKind::kLogistic:
      case OpKind::kTag:
      case OpKind::kAllReduce: {
        const auto* a = in(0);
        return a == nullptr ? std::nullopt : std::make_optional(*a);
      }
      case OpKind::kAdd:
      case OpKind::kSub:
      case OpKind::kMul:
      case OpKind::kDiv:
      case OpKind::kMax:
      case OpKind::kMin:
      case OpKind::kPow: {
        const auto *a = in(0), *b = in(1);
        if (a == nullptr || b == nullptr) return std::nullopt;
        if (*a != *b) {
          report_.Error(kShape, Loc(op),
                        StrCat("elementwise operands disagree: ",
                               DimsStr(*a), " vs ", DimsStr(*b)));
          return std::nullopt;
        }
        return *a;
      }
      case OpKind::kDot:
        return DeriveDot(op, in(0), in(1));
      case OpKind::kTranspose: {
        const auto* a = in(0);
        const auto* perm = AttrPtr<std::vector<int64_t>>(op, "perm");
        if (a == nullptr || perm == nullptr ||
            perm->size() != a->size()) {
          return std::nullopt;
        }
        std::vector<int64_t> out;
        for (int64_t p : *perm) {
          if (p < 0 || p >= static_cast<int64_t>(a->size())) {
            return std::nullopt;
          }
          out.push_back((*a)[p]);
        }
        return out;
      }
      case OpKind::kReshape: {
        const auto* a = in(0);
        if (a == nullptr || op.num_results() == 0 ||
            !op.result(0)->type().IsTensor()) {
          return std::nullopt;
        }
        const std::vector<int64_t>& declared =
            op.result(0)->tensor_type().dims();
        int64_t from = 1, to = 1;
        for (int64_t d : *a) from *= d;
        for (int64_t d : declared) to *= d;
        if (from != to) {
          report_.Error(kShape, Loc(op),
                        StrCat("reshape changes the element count: ",
                               DimsStr(*a), " has ", from, ", ",
                               DimsStr(declared), " has ", to));
        }
        return declared;
      }
      case OpKind::kReduce: {
        const auto* a = in(0);
        const auto* dims = AttrPtr<std::vector<int64_t>>(op, "dims");
        if (a == nullptr || dims == nullptr) return std::nullopt;
        std::vector<int64_t> out;
        for (int64_t i = 0; i < static_cast<int64_t>(a->size()); ++i) {
          if (std::find(dims->begin(), dims->end(), i) == dims->end()) {
            out.push_back((*a)[i]);
          }
        }
        return out;
      }
      case OpKind::kBroadcastInDim: {
        const auto* a = in(0);
        const auto* bdims =
            AttrPtr<std::vector<int64_t>>(op, "broadcast_dims");
        if (a == nullptr || bdims == nullptr || op.num_results() == 0 ||
            !op.result(0)->type().IsTensor() ||
            bdims->size() != a->size()) {
          return std::nullopt;
        }
        const std::vector<int64_t>& target =
            op.result(0)->tensor_type().dims();
        for (size_t i = 0; i < a->size(); ++i) {
          int64_t bd = (*bdims)[i];
          if (bd < 0 || bd >= static_cast<int64_t>(target.size()) ||
              target[bd] != (*a)[i]) {
            report_.Error(kShape, Loc(op),
                          StrCat("operand ", DimsStr(*a),
                                 " does not embed into the broadcast "
                                 "target ", DimsStr(target)));
            return std::nullopt;
          }
        }
        return target;
      }
      case OpKind::kConcatenate: {
        const int64_t* dim = AttrPtr<int64_t>(op, "dim");
        const auto* first = in(0);
        if (dim == nullptr || first == nullptr) return std::nullopt;
        if (*dim < 0 || *dim >= static_cast<int64_t>(first->size())) {
          return std::nullopt;
        }
        std::vector<int64_t> out = *first;
        out[*dim] = 0;
        for (int i = 0; i < op.num_operands(); ++i) {
          const auto* a = in(i);
          if (a == nullptr) return std::nullopt;
          if (a->size() != first->size()) {
            report_.Error(kShape, Loc(op), "operand ranks disagree");
            return std::nullopt;
          }
          for (size_t d = 0; d < a->size(); ++d) {
            if (static_cast<int64_t>(d) != *dim &&
                (*a)[d] != (*first)[d]) {
              report_.Error(kShape, Loc(op),
                            StrCat("operands disagree off the "
                                   "concatenation dim: ", DimsStr(*a),
                                   " vs ", DimsStr(*first)));
              return std::nullopt;
            }
          }
          out[*dim] += (*a)[*dim];
        }
        return out;
      }
      case OpKind::kStaticSlice: {
        const auto* a = in(0);
        const auto* starts = AttrPtr<std::vector<int64_t>>(op, "starts");
        const auto* limits = AttrPtr<std::vector<int64_t>>(op, "limits");
        if (a == nullptr || starts == nullptr || limits == nullptr ||
            starts->size() != a->size() || limits->size() != a->size() ||
            op.num_results() == 0 || !op.result(0)->type().IsTensor() ||
            op.result(0)->tensor_type().dims().size() != a->size()) {
          return std::nullopt;
        }
        const std::vector<int64_t>& declared =
            op.result(0)->tensor_type().dims();
        std::vector<int64_t> out;
        for (size_t d = 0; d < a->size(); ++d) {
          // A dim taken in full may have been tiled after the slice was
          // built: `starts`/`limits` keep their pre-partitioning values,
          // and the executor reads starts[d] + the device-local result
          // extent. Validate the window actually executed, not `limits`.
          bool tiled_full = (*starts)[d] == 0 && (*limits)[d] > (*a)[d] &&
                            declared[d] == (*a)[d];
          if (tiled_full) {
            out.push_back((*a)[d]);
            continue;
          }
          if ((*starts)[d] < 0 || (*starts)[d] > (*limits)[d] ||
              (*limits)[d] > (*a)[d]) {
            report_.Error(kShape, Loc(op),
                          StrCat("slice bounds [", (*starts)[d], ", ",
                                 (*limits)[d], ") exceed dim ", d,
                                 " of ", DimsStr(*a)));
            return std::nullopt;
          }
          out.push_back((*limits)[d] - (*starts)[d]);
        }
        return out;
      }
      case OpKind::kGather: {
        const auto *table = in(0), *indices = in(1);
        if (table == nullptr || indices == nullptr || table->empty()) {
          return std::nullopt;
        }
        std::vector<int64_t> out = *indices;
        out.insert(out.end(), table->begin() + 1, table->end());
        return out;
      }
      case OpKind::kScatterAdd: {
        const auto *indices = in(0), *updates = in(1);
        const int64_t* num_rows = AttrPtr<int64_t>(op, "num_rows");
        if (indices == nullptr || updates == nullptr ||
            num_rows == nullptr || updates->size() <= indices->size()) {
          return std::nullopt;
        }
        for (size_t d = 0; d < indices->size(); ++d) {
          if ((*updates)[d] != (*indices)[d]) {
            report_.Error(kShape, Loc(op),
                          StrCat("updates ", DimsStr(*updates),
                                 " do not extend indices ",
                                 DimsStr(*indices)));
            return std::nullopt;
          }
        }
        std::vector<int64_t> out = {*num_rows};
        out.insert(out.end(), updates->begin() + indices->size(),
                   updates->end());
        return out;
      }
      case OpKind::kConvolution: {
        const auto *input = in(0), *filter = in(1);
        const auto* strides = AttrPtr<std::vector<int64_t>>(op, "strides");
        if (input == nullptr || filter == nullptr || strides == nullptr ||
            input->size() != 4 || filter->size() != 4 ||
            strides->size() < 2 || (*strides)[0] < 1 || (*strides)[1] < 1) {
          return std::nullopt;
        }
        if ((*input)[3] != (*filter)[2]) {
          report_.Error(kShape, Loc(op),
                        StrCat("input channels ", (*input)[3],
                               " != filter input channels ", (*filter)[2]));
          return std::nullopt;
        }
        return std::vector<int64_t>{
            (*input)[0], ((*input)[1] + (*strides)[0] - 1) / (*strides)[0],
            ((*input)[2] + (*strides)[1] - 1) / (*strides)[1], (*filter)[3]};
      }
      case OpKind::kAllSlice:
      case OpKind::kReduceScatter:
      case OpKind::kAllGather: {
        const auto* a = in(0);
        const auto* apd = AttrPtr<AxesPerDim>(op, "axes_per_dim");
        if (a == nullptr || apd == nullptr) return std::nullopt;
        // The boundary-realization paths emit these ops directly (operand
        // gathers, gradient reduce_scatters), so malformed attributes get
        // explicit diagnostics here rather than a silent no-opinion: a bad
        // axes_per_dim would otherwise also disable the divisibility check
        // everything downstream of the collective relies on.
        if (apd->size() != a->size()) {
          report_.Error(kShape, Loc(op),
                        StrCat("axes_per_dim lists ", apd->size(),
                               " dim(s), the operand has rank ", a->size()));
          return std::nullopt;
        }
        std::vector<int64_t> out = *a;
        for (size_t d = 0; d < a->size(); ++d) {
          std::optional<int64_t> product = AxisProduct(mesh_, (*apd)[d]);
          if (!product.has_value()) {
            report_.Error(kShape, Loc(op),
                          StrCat("dim ", d,
                                 " gathers/slices along an axis missing "
                                 "from the mesh"));
            return std::nullopt;
          }
          if (op.kind() == OpKind::kAllGather) {
            out[d] *= *product;
          } else {
            if (*product != 0 && out[d] % *product != 0) {
              report_.Error(
                  kShape, Loc(op),
                  StrCat("dim ", d, " of size ", out[d],
                         " is not divisible by the axis product ",
                         *product));
              return std::nullopt;
            }
            out[d] = *product == 0 ? out[d] : out[d] / *product;
          }
        }
        return out;
      }
      case OpKind::kAllToAll: {
        const auto* a = in(0);
        const auto* axes = AttrPtr<std::vector<std::string>>(op, "axes");
        const int64_t* slice_dim = AttrPtr<int64_t>(op, "slice_dim");
        const int64_t* concat_dim = AttrPtr<int64_t>(op, "concat_dim");
        if (a == nullptr || axes == nullptr || slice_dim == nullptr ||
            concat_dim == nullptr) {
          return std::nullopt;
        }
        std::optional<int64_t> group = AxisProduct(mesh_, *axes);
        if (!group.has_value() || *group == 0 || *slice_dim < 0 ||
            *slice_dim >= static_cast<int64_t>(a->size()) ||
            *concat_dim < 0 ||
            *concat_dim >= static_cast<int64_t>(a->size())) {
          return std::nullopt;
        }
        std::vector<int64_t> out = *a;
        if ((*a)[*slice_dim] % *group != 0) {
          report_.Error(kShape, Loc(op),
                        StrCat("slice dim of size ", (*a)[*slice_dim],
                               " is not divisible by the group size ",
                               *group));
          return std::nullopt;
        }
        out[*slice_dim] /= *group;
        out[*concat_dim] *= *group;
        return out;
      }
      default:
        // Constants / iota / conv grads carry their shape in the result
        // type; unknown kinds get no derived opinion.
        return std::nullopt;
    }
  }

 private:
  std::optional<std::vector<int64_t>> DeriveDot(
      const Operation& op, const std::vector<int64_t>* lhs,
      const std::vector<int64_t>* rhs) {
    const auto* lc = AttrPtr<std::vector<int64_t>>(op, "lhs_contract");
    const auto* rc = AttrPtr<std::vector<int64_t>>(op, "rhs_contract");
    const auto* lb = AttrPtr<std::vector<int64_t>>(op, "lhs_batch");
    const auto* rb = AttrPtr<std::vector<int64_t>>(op, "rhs_batch");
    if (lhs == nullptr || rhs == nullptr || lc == nullptr || rc == nullptr ||
        lb == nullptr || rb == nullptr || lc->size() != rc->size() ||
        lb->size() != rb->size()) {
      return std::nullopt;
    }
    auto dim_ok = [](const std::vector<int64_t>& dims, int64_t i) {
      return i >= 0 && i < static_cast<int64_t>(dims.size());
    };
    for (size_t i = 0; i < lc->size(); ++i) {
      if (!dim_ok(*lhs, (*lc)[i]) || !dim_ok(*rhs, (*rc)[i])) {
        return std::nullopt;
      }
      if ((*lhs)[(*lc)[i]] != (*rhs)[(*rc)[i]]) {
        report_.Error(kShape, Loc(op),
                      StrCat("contracting dims disagree: lhs ",
                             DimsStr(*lhs), " dim ", (*lc)[i], " vs rhs ",
                             DimsStr(*rhs), " dim ", (*rc)[i]));
        return std::nullopt;
      }
    }
    for (size_t i = 0; i < lb->size(); ++i) {
      if (!dim_ok(*lhs, (*lb)[i]) || !dim_ok(*rhs, (*rb)[i])) {
        return std::nullopt;
      }
      if ((*lhs)[(*lb)[i]] != (*rhs)[(*rb)[i]]) {
        report_.Error(kShape, Loc(op),
                      StrCat("batch dims disagree: lhs ", DimsStr(*lhs),
                             " vs rhs ", DimsStr(*rhs)));
        return std::nullopt;
      }
    }
    auto contains = [](const std::vector<int64_t>& v, int64_t x) {
      return std::find(v.begin(), v.end(), x) != v.end();
    };
    std::vector<int64_t> out;
    for (int64_t b : *lb) out.push_back((*lhs)[b]);
    for (int64_t i = 0; i < static_cast<int64_t>(lhs->size()); ++i) {
      if (!contains(*lc, i) && !contains(*lb, i)) out.push_back((*lhs)[i]);
    }
    for (int64_t i = 0; i < static_cast<int64_t>(rhs->size()); ++i) {
      if (!contains(*rc, i) && !contains(*rb, i)) out.push_back((*rhs)[i]);
    }
    return out;
  }

  const Mesh& mesh_;
  AnalysisReport& report_;
};

void CheckShardings(const SpmdModule& spmd, AnalysisReport& report) {
  const Func* main = spmd.main();
  auto check = [&](const ValueSharding& sharding, const Value* value,
                   const std::string& what, int i) {
    std::string loc = StrCat(what, " ", i, " ('", value->name(), "')");
    if (!value->type().IsTensor()) return;
    if (!sharding.axes.empty() &&
        static_cast<int>(sharding.axes.size()) !=
            value->tensor_type().rank()) {
      report.Error(kShape, loc,
                   StrCat("sharding covers ", sharding.axes.size(),
                          " dim(s), the value has rank ",
                          value->tensor_type().rank()));
    }
    for (const auto& dim_axes : sharding.axes) {
      for (const std::string& axis : dim_axes) {
        if (!spmd.mesh.HasAxis(axis)) {
          report.Error(kShape, loc,
                       StrCat("sharded along unknown mesh axis '", axis,
                              "'"));
        }
      }
    }
  };
  for (size_t i = 0;
       i < spmd.input_shardings.size() &&
       i < static_cast<size_t>(main->body().num_args());
       ++i) {
    check(spmd.input_shardings[i], main->body().arg(i), "input",
          static_cast<int>(i));
  }
  if (main->body().num_ops() == 0) return;
  const Operation* ret = main->body().terminator();
  for (size_t i = 0;
       i < spmd.output_shardings.size() &&
       i < static_cast<size_t>(ret->num_operands());
       ++i) {
    check(spmd.output_shardings[i], ret->operand(i), "output",
          static_cast<int>(i));
  }
}

}  // namespace

void CheckShapes(const SpmdModule& spmd, AnalysisReport& report) {
  report.checkers_run.push_back("shapes");
  if (spmd.module == nullptr) return;
  CheckShardings(spmd, report);
  ShapeDeriver deriver(spmd.mesh, report);
  for (const auto& func : spmd.module->funcs()) {
    if (func->body().num_ops() == 0) continue;
    RunForwardDataflow<ShapeState>(
        func->body(),
        [](const Value& value) {
          ShapeState state;
          if (value.type().IsTensor()) {
            state.known = true;
            state.dims = value.tensor_type().dims();
          }
          return state;
        },
        [&](const Operation& op,
            const std::vector<const ShapeState*>& operands) {
          std::optional<std::vector<int64_t>> derived =
              deriver.Derive(op, operands);
          std::vector<ShapeState> result_states(op.num_results());
          for (int r = 0; r < op.num_results(); ++r) {
            ShapeState& state = result_states[r];
            if (!op.result(r)->type().IsTensor()) continue;
            const std::vector<int64_t>& declared =
                op.result(r)->tensor_type().dims();
            if (r == 0 && derived.has_value() && *derived != declared) {
              report.Error(
                  kShape, Loc(op),
                  StrCat("declared shape ", DimsStr(declared),
                         " disagrees with the shape derived from its "
                         "operands ", DimsStr(*derived)));
            }
            // Continue from the declared shape so one bad op does not
            // cascade into downstream noise.
            state.known = true;
            state.dims = declared;
          }
          return result_states;
        });
  }
}

}  // namespace analysis
}  // namespace partir
