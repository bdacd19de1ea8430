#include "src/ir/infer.h"

#include <algorithm>
#include <string>
#include <vector>

#include "src/support/str_util.h"

namespace partir {
namespace {

using Dims = std::vector<int64_t>;

template <typename T>
constexpr const char* kAttrTypeName = "";
template <>
constexpr const char* kAttrTypeName<int64_t> = "an integer";
template <>
constexpr const char* kAttrTypeName<double> = "a float";
template <>
constexpr const char* kAttrTypeName<std::string> = "a string";
template <>
constexpr const char* kAttrTypeName<Dims> = "an integer list";
template <>
constexpr const char* kAttrTypeName<std::vector<std::string>> =
    "a string list";
template <>
constexpr const char* kAttrTypeName<AxesPerDim> = "a per-dim axis list";
template <>
constexpr const char* kAttrTypeName<std::vector<float>> = "a float list";

template <typename... Args>
Status Bad(const Args&... args) {
  return InvalidArgumentError(args...);
}

Type Tensor(Dims dims, DType dtype) {
  return Type(TensorType(std::move(dims), dtype));
}

int64_t CeilDiv(int64_t a, int64_t b) { return a / b + (a % b != 0); }

/** size * factor, or an error when the product overflows int64_t. */
StatusOr<int64_t> Times(int64_t size, int64_t factor) {
  int64_t product = 0;
  if (__builtin_mul_overflow(size, factor, &product)) {
    return Bad("size ", size, " times ", factor, " overflows int64");
  }
  return product;
}

/** Marks each of `dims` used; each must be in range and not yet used. */
Status ClaimDims(const Dims& dims, const char* name, std::vector<bool>& used) {
  for (int64_t d : dims) {
    if (d < 0 || d >= static_cast<int64_t>(used.size())) {
      return Bad(name, " dim ", d, " is out of range for rank ",
                 used.size());
    }
    if (used[d]) return Bad(name, " repeats dim ", d);
    used[d] = true;
  }
  return Status::Ok();
}

class Rule {
 public:
  Rule(const Operation& op, const Mesh* mesh) : op_(op), mesh_(mesh) {}

  StatusOr<Type> Infer() {
    const OpKind kind = op_.kind();
    if (kind == OpKind::kReturn || kind == OpKind::kYield) {
      return Bad("a terminator has no result type");
    }
    if (op_.num_results() != 1) {
      return Bad("has ", op_.num_results(), " results, expected 1");
    }
    if (IsUnaryElementwise(kind)) {
      PARTIR_RETURN_IF_ERROR(Operands(1));
      return op_.operand(0)->type();
    }
    if (IsBinaryElementwise(kind)) {
      PARTIR_RETURN_IF_ERROR(Operands(2));
      if (In(0) != In(1)) {
        return Bad("operands disagree: ", In(0).ToString(), " vs ",
                   In(1).ToString());
      }
      return op_.operand(0)->type();
    }
    switch (kind) {
      case OpKind::kConstant: return Constant();
      case OpKind::kIota: return Iota();
      case OpKind::kTag: return Tag();
      case OpKind::kDot: return Dot();
      case OpKind::kTranspose: return Transpose();
      case OpKind::kReshape: return Reshape();
      case OpKind::kReduce: return Reduce();
      case OpKind::kBroadcastInDim: return BroadcastInDim();
      case OpKind::kConcatenate: return Concatenate();
      case OpKind::kStaticSlice: return StaticSlice();
      case OpKind::kGather: return Gather();
      case OpKind::kScatterAdd: return ScatterAdd();
      case OpKind::kConvolution: return Convolution();
      case OpKind::kConvInputGrad:
      case OpKind::kConvFilterGrad: return ConvGrad();
      case OpKind::kLoop: return Loop();
      case OpKind::kPSlice: return PSlice();
      case OpKind::kAllReduce: return AllReduce();
      case OpKind::kAllSlice:
      case OpKind::kAllGather:
      case OpKind::kReduceScatter: return AxesPerDimCollective();
      case OpKind::kAllToAll: return AllToAll();
      default:
        return Bad("has no typing rule");
    }
  }

 private:
  /** Operand i's tensor type; valid once Operands() accepted the op. */
  const TensorType& In(int i) const { return op_.operand(i)->tensor_type(); }

  /** Exactly `n` operands (at least `n` when `at_least`), all tensors. */
  Status Operands(int n, bool at_least = false) const {
    if (op_.num_operands() != n && !(at_least && op_.num_operands() > n)) {
      return Bad("takes ", at_least ? "at least " : "", n,
                 " operand(s), has ", op_.num_operands());
    }
    for (int i = 0; i < op_.num_operands(); ++i) {
      if (!op_.operand(i)->type().IsTensor()) {
        return Bad("operand ", i, " is not a tensor");
      }
    }
    return Status::Ok();
  }

  /** Operand i's tensor type, which must have rank `rank`. */
  StatusOr<const TensorType*> RankedIn(int i, int rank) const {
    if (In(i).rank() != rank) {
      return Bad("operand ", i, " must have rank ", rank, ", is ",
                 In(i).ToString());
    }
    return &In(i);
  }

  template <typename T>
  StatusOr<const T*> Attr(const std::string& name) const {
    const T* value = op_.attrs().Find<T>(name);
    if (value == nullptr && op_.attrs().Has(name)) {
      return Bad("attribute '", name, "' is not ", kAttrTypeName<T>);
    }
    if (value == nullptr) {
      return Bad("missing attribute '", name, "' (", kAttrTypeName<T>, ")");
    }
    return value;
  }

  /** An integer attribute naming a dim of a rank-`rank` tensor. */
  StatusOr<int64_t> DimAttr(const std::string& name, int rank) const {
    PARTIR_ASSIGN_OR_RETURN(const int64_t* dim, Attr<int64_t>(name));
    if (*dim < 0 || *dim >= rank) {
      return Bad(name, " ", *dim, " is out of range for rank ", rank);
    }
    return *dim;
  }

  Status Reduction() const {
    PARTIR_ASSIGN_OR_RETURN(const std::string* reduction,
                            Attr<std::string>("reduction"));
    if (*reduction != "sum" && *reduction != "max") {
      return Bad("unknown reduction '", *reduction, "'");
    }
    return Status::Ok();
  }

  /** The op's own result type, for the kinds that declare it. */
  StatusOr<const TensorType*> Declared() const {
    if (!op_.result()->type().IsTensor()) {
      return Bad("declares a non-tensor result");
    }
    return &op_.result()->tensor_type();
  }

  /** Checks a declared result keeps operand 0's dtype, then returns it. */
  StatusOr<Type> KeepDtype(const TensorType& declared) const {
    if (declared.dtype() != In(0).dtype()) {
      return Bad("declares ", declared.ToString(), " but its operand is ",
                 In(0).ToString());
    }
    return Type(declared);
  }

  StatusOr<const Dims*> Strides() const {
    PARTIR_ASSIGN_OR_RETURN(const Dims* strides, Attr<Dims>("strides"));
    if (strides->size() != 2 || (*strides)[0] < 1 || (*strides)[1] < 1) {
      return Bad("strides must be two positive integers");
    }
    return strides;
  }

  /** Product of the group axes' sizes. The axes must be distinct and, with
   *  a mesh, mesh axes; `sized` requires the mesh. */
  StatusOr<int64_t> Group(const std::vector<std::string>& axes,
                          bool sized) const {
    if (mesh_ == nullptr && sized) {
      return Bad("needs a mesh to size its result");
    }
    int64_t product = 1;
    for (auto it = axes.begin(); it != axes.end(); ++it) {
      if (std::find(axes.begin(), it, *it) != it) {
        return Bad("repeats mesh axis '", *it, "'");
      }
      if (mesh_ == nullptr) continue;
      if (!mesh_->HasAxis(*it)) return Bad("unknown mesh axis '", *it, "'");
      PARTIR_ASSIGN_OR_RETURN(product, Times(product, mesh_->AxisSize(*it)));
    }
    return product;
  }

  StatusOr<Type> Constant() const {
    PARTIR_RETURN_IF_ERROR(Operands(0));
    PARTIR_ASSIGN_OR_RETURN(const TensorType* type, Declared());
    if (!op_.attrs().Has("data")) {
      if (!op_.attrs().Has("splat")) {
        return Bad("missing attribute 'splat' or 'data'");
      }
      PARTIR_RETURN_IF_ERROR(Attr<double>("splat").status());
      return Type(*type);
    }
    PARTIR_ASSIGN_OR_RETURN(const std::vector<float>* data,
                            Attr<std::vector<float>>("data"));
    if (static_cast<int64_t>(data->size()) != type->NumElements()) {
      return Bad("data holds ", data->size(), " value(s), ",
                 type->ToString(), " has ", type->NumElements());
    }
    return Type(*type);
  }

  StatusOr<Type> Iota() const {
    PARTIR_RETURN_IF_ERROR(Operands(0));
    PARTIR_ASSIGN_OR_RETURN(const TensorType* type, Declared());
    PARTIR_RETURN_IF_ERROR(DimAttr("dim", type->rank()).status());
    return Type(*type);
  }

  StatusOr<Type> Tag() const {
    PARTIR_RETURN_IF_ERROR(Operands(1));
    PARTIR_RETURN_IF_ERROR(Attr<std::string>("name").status());
    if (op_.attrs().Has("barrier")) {
      PARTIR_RETURN_IF_ERROR(Attr<int64_t>("barrier").status());
    }
    return op_.operand(0)->type();
  }

  StatusOr<Type> Dot() const {
    PARTIR_RETURN_IF_ERROR(Operands(2));
    const TensorType& lhs = In(0);
    const TensorType& rhs = In(1);
    PARTIR_ASSIGN_OR_RETURN(const Dims* lc, Attr<Dims>("lhs_contract"));
    PARTIR_ASSIGN_OR_RETURN(const Dims* rc, Attr<Dims>("rhs_contract"));
    PARTIR_ASSIGN_OR_RETURN(const Dims* lb, Attr<Dims>("lhs_batch"));
    PARTIR_ASSIGN_OR_RETURN(const Dims* rb, Attr<Dims>("rhs_batch"));
    if (lc->size() != rc->size() || lb->size() != rb->size()) {
      return Bad("lhs and rhs list different numbers of contracting or "
                 "batch dims");
    }
    std::vector<bool> lhs_used(lhs.rank()), rhs_used(rhs.rank());
    PARTIR_RETURN_IF_ERROR(ClaimDims(*lb, "lhs_batch", lhs_used));
    PARTIR_RETURN_IF_ERROR(ClaimDims(*lc, "lhs_contract", lhs_used));
    PARTIR_RETURN_IF_ERROR(ClaimDims(*rb, "rhs_batch", rhs_used));
    PARTIR_RETURN_IF_ERROR(ClaimDims(*rc, "rhs_contract", rhs_used));
    for (size_t i = 0; i < lb->size(); ++i) {
      if (lhs.dim((*lb)[i]) != rhs.dim((*rb)[i])) {
        return Bad("batch dims disagree: ", lhs.ToString(), " dim ",
                   (*lb)[i], " vs ", rhs.ToString(), " dim ", (*rb)[i]);
      }
    }
    for (size_t i = 0; i < lc->size(); ++i) {
      if (lhs.dim((*lc)[i]) != rhs.dim((*rc)[i])) {
        return Bad("contracting dims disagree: ", lhs.ToString(), " dim ",
                   (*lc)[i], " vs ", rhs.ToString(), " dim ", (*rc)[i]);
      }
    }
    Dims dims;
    for (int64_t b : *lb) dims.push_back(lhs.dim(b));
    for (int d = 0; d < lhs.rank(); ++d) {
      if (!lhs_used[d]) dims.push_back(lhs.dim(d));
    }
    for (int d = 0; d < rhs.rank(); ++d) {
      if (!rhs_used[d]) dims.push_back(rhs.dim(d));
    }
    return Tensor(std::move(dims), lhs.dtype());
  }

  StatusOr<Type> Transpose() const {
    PARTIR_RETURN_IF_ERROR(Operands(1));
    const TensorType& in = In(0);
    PARTIR_ASSIGN_OR_RETURN(const Dims* perm, Attr<Dims>("perm"));
    if (static_cast<int>(perm->size()) != in.rank()) {
      return Bad("perm lists ", perm->size(), " dim(s), the operand ",
                 in.ToString(), " has rank ", in.rank());
    }
    std::vector<bool> used(in.rank());
    PARTIR_RETURN_IF_ERROR(ClaimDims(*perm, "perm", used));
    Dims dims(perm->size());
    for (size_t i = 0; i < perm->size(); ++i) dims[i] = in.dim((*perm)[i]);
    return Tensor(std::move(dims), in.dtype());
  }

  StatusOr<Type> Reshape() const {
    PARTIR_RETURN_IF_ERROR(Operands(1));
    PARTIR_ASSIGN_OR_RETURN(const TensorType* type, Declared());
    if (type->NumElements() != In(0).NumElements()) {
      return Bad("changes the element count: ", In(0).ToString(), " has ",
                 In(0).NumElements(), ", ", type->ToString(), " has ",
                 type->NumElements());
    }
    return KeepDtype(*type);
  }

  StatusOr<Type> Reduce() const {
    PARTIR_RETURN_IF_ERROR(Operands(1));
    const TensorType& in = In(0);
    PARTIR_ASSIGN_OR_RETURN(const Dims* reduced, Attr<Dims>("dims"));
    PARTIR_RETURN_IF_ERROR(Reduction());
    std::vector<bool> used(in.rank());
    PARTIR_RETURN_IF_ERROR(ClaimDims(*reduced, "dims", used));
    Dims dims;
    for (int d = 0; d < in.rank(); ++d) {
      if (!used[d]) dims.push_back(in.dim(d));
    }
    return Tensor(std::move(dims), in.dtype());
  }

  StatusOr<Type> BroadcastInDim() const {
    PARTIR_RETURN_IF_ERROR(Operands(1));
    const TensorType& in = In(0);
    PARTIR_ASSIGN_OR_RETURN(const TensorType* type, Declared());
    PARTIR_ASSIGN_OR_RETURN(const Dims* bdims, Attr<Dims>("broadcast_dims"));
    if (static_cast<int>(bdims->size()) != in.rank()) {
      return Bad("broadcast_dims lists ", bdims->size(),
                 " dim(s), the operand ", in.ToString(), " has rank ",
                 in.rank());
    }
    std::vector<bool> used(type->rank());
    PARTIR_RETURN_IF_ERROR(ClaimDims(*bdims, "broadcast_dims", used));
    for (int i = 0; i < in.rank(); ++i) {
      if (type->dim((*bdims)[i]) != in.dim(i)) {
        return Bad("operand ", in.ToString(),
                   " does not embed into the broadcast target ",
                   type->ToString());
      }
    }
    return KeepDtype(*type);
  }

  StatusOr<Type> Concatenate() const {
    PARTIR_RETURN_IF_ERROR(Operands(1, /*at_least=*/true));
    const TensorType& first = In(0);
    PARTIR_ASSIGN_OR_RETURN(int64_t dim, DimAttr("dim", first.rank()));
    Dims dims = first.dims();
    dims[dim] = 0;
    for (int i = 0; i < op_.num_operands(); ++i) {
      const TensorType& in = In(i);
      bool agree = in.rank() == first.rank() && in.dtype() == first.dtype();
      for (int d = 0; agree && d < in.rank(); ++d) {
        agree = d == dim || in.dim(d) == first.dim(d);
      }
      if (!agree) {
        return Bad("operands disagree off the concatenation dim: ",
                   in.ToString(), " vs ", first.ToString());
      }
      if (__builtin_add_overflow(dims[dim], in.dim(dim), &dims[dim])) {
        return Bad("the concatenated dim ", dim, " overflows int64");
      }
    }
    return Tensor(std::move(dims), first.dtype());
  }

  StatusOr<Type> StaticSlice() const {
    PARTIR_RETURN_IF_ERROR(Operands(1));
    const TensorType& in = In(0);
    PARTIR_ASSIGN_OR_RETURN(const Dims* starts, Attr<Dims>("starts"));
    PARTIR_ASSIGN_OR_RETURN(const Dims* limits, Attr<Dims>("limits"));
    if (static_cast<int>(starts->size()) != in.rank() ||
        static_cast<int>(limits->size()) != in.rank()) {
      return Bad("starts and limits must list one bound per dim of ",
                 in.ToString());
    }
    Dims dims;
    for (int d = 0; d < in.rank(); ++d) {
      int64_t start = (*starts)[d], limit = (*limits)[d];
      if (start < 0 || start > limit || limit > in.dim(d)) {
        return Bad("slice window [", start, ", ", limit, ") exceeds dim ", d,
                   " of ", in.ToString());
      }
      dims.push_back(limit - start);
    }
    return Tensor(std::move(dims), in.dtype());
  }

  StatusOr<Type> Gather() const {
    PARTIR_RETURN_IF_ERROR(Operands(2));
    const TensorType& table = In(0);
    const TensorType& indices = In(1);
    if (table.rank() < 1) return Bad("the table must have rank >= 1");
    if (indices.dtype() != DType::kS32) {
      return Bad("indices must be s32, are ", indices.ToString());
    }
    Dims dims = indices.dims();
    dims.insert(dims.end(), table.dims().begin() + 1, table.dims().end());
    return Tensor(std::move(dims), table.dtype());
  }

  StatusOr<Type> ScatterAdd() const {
    PARTIR_RETURN_IF_ERROR(Operands(2));
    const TensorType& indices = In(0);
    const TensorType& updates = In(1);
    PARTIR_ASSIGN_OR_RETURN(const int64_t* num_rows,
                            Attr<int64_t>("num_rows"));
    if (*num_rows < 0) return Bad("num_rows ", *num_rows, " is negative");
    bool extends = indices.rank() >= 1 && updates.rank() > indices.rank();
    for (int d = 0; extends && d < indices.rank(); ++d) {
      extends = updates.dim(d) == indices.dim(d);
    }
    if (!extends) {
      return Bad("updates ", updates.ToString(), " do not extend indices ",
                 indices.ToString());
    }
    Dims dims = {*num_rows};
    dims.insert(dims.end(), updates.dims().begin() + indices.rank(),
                updates.dims().end());
    return Tensor(std::move(dims), updates.dtype());
  }

  StatusOr<Type> Convolution() const {
    PARTIR_RETURN_IF_ERROR(Operands(2));
    PARTIR_ASSIGN_OR_RETURN(const TensorType* in, RankedIn(0, 4));  // NHWC
    PARTIR_ASSIGN_OR_RETURN(const TensorType* f, RankedIn(1, 4));   // HWIO
    PARTIR_ASSIGN_OR_RETURN(const Dims* strides, Strides());
    if (in->dim(3) != f->dim(2)) {
      return Bad("input channels ", in->dim(3), " != filter input channels ",
                 f->dim(2));
    }
    return Tensor({in->dim(0), CeilDiv(in->dim(1), (*strides)[0]),
                   CeilDiv(in->dim(2), (*strides)[1]), f->dim(3)},
                  in->dtype());
  }

  /** conv_input_grad (out_grad, filter) and conv_filter_grad (out_grad,
   *  input) declare the input or filter of the convolution whose output
   *  gradient is operand 0. */
  StatusOr<Type> ConvGrad() const {
    PARTIR_RETURN_IF_ERROR(Operands(2));
    PARTIR_ASSIGN_OR_RETURN(const TensorType* gout, RankedIn(0, 4));
    PARTIR_ASSIGN_OR_RETURN(const TensorType* other, RankedIn(1, 4));
    PARTIR_ASSIGN_OR_RETURN(const Dims* strides, Strides());
    PARTIR_ASSIGN_OR_RETURN(const TensorType* type, Declared());
    const bool input_grad = op_.kind() == OpKind::kConvInputGrad;
    const TensorType& in = input_grad ? *type : *other;  // NHWC
    const TensorType& f = input_grad ? *other : *type;   // HWIO
    if (type->rank() != 4 || in.dim(0) != gout->dim(0) ||
        CeilDiv(in.dim(1), (*strides)[0]) != gout->dim(1) ||
        CeilDiv(in.dim(2), (*strides)[1]) != gout->dim(2) ||
        in.dim(3) != f.dim(2) || gout->dim(3) != f.dim(3)) {
      return Bad("declares ", type->ToString(), ", which does not match "
                 "output gradient ", gout->ToString(), " and ",
                 other->ToString());
    }
    return KeepDtype(*type);
  }

  StatusOr<Type> Loop() const {
    PARTIR_RETURN_IF_ERROR(Operands(0));
    if (op_.num_regions() != 1) {
      return Bad("carries ", op_.num_regions(), " region(s), expected 1");
    }
    const Block& body = op_.region(0).block();
    if (body.num_args() != 1 || !body.arg(0)->type().IsRange()) {
      return Bad("the body must take a single range argument");
    }
    const RangeType& range = body.arg(0)->type().range();
    if (range.size() < 1) return Bad("trip count ", range.size(), " < 1");
    if (mesh_ != nullptr && !range.axis().empty()) {
      if (!mesh_->HasAxis(range.axis())) {
        return Bad("ranges over unknown mesh axis '", range.axis(), "'");
      }
      if (mesh_->AxisSize(range.axis()) != range.size()) {
        return Bad("trip count ", range.size(), " disagrees with mesh axis '",
                   range.axis(), "' of size ", mesh_->AxisSize(range.axis()));
      }
    }
    PARTIR_ASSIGN_OR_RETURN(const std::string* action,
                            Attr<std::string>("action"));
    if (*action != "tile" && *action != "sum" && *action != "any") {
      return Bad("unknown loop action '", *action, "'");
    }
    if (op_.attrs().Has("reduction")) PARTIR_RETURN_IF_ERROR(Reduction());
    if (body.num_ops() == 0 || body.terminator()->kind() != OpKind::kYield) {
      return Bad("the body must end in yield");
    }
    const Operation& yield = *body.terminator();
    if (yield.num_operands() != 1 || !yield.operand(0)->type().IsTensor()) {
      return Bad("the yield must carry one tensor, carries ",
                 yield.num_operands(), " value(s)");
    }
    const TensorType& yielded = yield.operand(0)->tensor_type();
    if (*action != "tile") return Type(yielded);
    PARTIR_ASSIGN_OR_RETURN(int64_t dim, DimAttr("tile_dim", yielded.rank()));
    Dims dims = yielded.dims();
    PARTIR_ASSIGN_OR_RETURN(dims[dim], Times(dims[dim], range.size()));
    return Tensor(std::move(dims), yielded.dtype());
  }

  StatusOr<Type> PSlice() const {
    if (op_.num_operands() != 2 || !op_.operand(0)->type().IsTensor() ||
        !op_.operand(1)->type().IsRange()) {
      return Bad("takes (tensor, range) operands");
    }
    const TensorType& in = In(0);
    int64_t count = op_.operand(1)->type().range().size();
    PARTIR_ASSIGN_OR_RETURN(int64_t dim, DimAttr("dim", in.rank()));
    if (count < 1 || in.dim(dim) % count != 0) {
      return Bad("dim ", dim, " of ", in.ToString(),
                 " is not divisible into ", count, " chunk(s)");
    }
    Dims dims = in.dims();
    dims[dim] /= count;
    return Tensor(std::move(dims), in.dtype());
  }

  StatusOr<Type> AllReduce() const {
    PARTIR_RETURN_IF_ERROR(Operands(1));
    PARTIR_ASSIGN_OR_RETURN(const std::vector<std::string>* axes,
                            Attr<std::vector<std::string>>("axes"));
    PARTIR_RETURN_IF_ERROR(Reduction());
    PARTIR_RETURN_IF_ERROR(Group(*axes, /*sized=*/false).status());
    return op_.operand(0)->type();
  }

  /** all_slice and reduce_scatter divide each dim by the product of its
   *  axes; all_gather multiplies it. */
  StatusOr<Type> AxesPerDimCollective() const {
    PARTIR_RETURN_IF_ERROR(Operands(1));
    const TensorType& in = In(0);
    PARTIR_ASSIGN_OR_RETURN(const AxesPerDim* axes,
                            Attr<AxesPerDim>("axes_per_dim"));
    if (static_cast<int>(axes->size()) != in.rank()) {
      return Bad("axes_per_dim lists ", axes->size(), " dim(s), the operand ",
                 in.ToString(), " has rank ", in.rank());
    }
    if (op_.kind() == OpKind::kReduceScatter) {
      PARTIR_RETURN_IF_ERROR(Reduction());
    }
    std::vector<std::string> flat;
    for (const auto& list : *axes) {
      flat.insert(flat.end(), list.begin(), list.end());
    }
    PARTIR_RETURN_IF_ERROR(Group(flat, /*sized=*/true).status());
    Dims dims = in.dims();
    for (int d = 0; d < in.rank(); ++d) {
      PARTIR_ASSIGN_OR_RETURN(int64_t product,
                              Group((*axes)[d], /*sized=*/true));
      if (op_.kind() == OpKind::kAllGather) {
        PARTIR_ASSIGN_OR_RETURN(dims[d], Times(dims[d], product));
      } else if (dims[d] % product != 0) {
        return Bad("dim ", d, " of ", in.ToString(),
                   " is not divisible by the axis product ", product);
      } else {
        dims[d] /= product;
      }
    }
    return Tensor(std::move(dims), in.dtype());
  }

  StatusOr<Type> AllToAll() const {
    PARTIR_RETURN_IF_ERROR(Operands(1));
    const TensorType& in = In(0);
    PARTIR_ASSIGN_OR_RETURN(int64_t slice_dim, DimAttr("slice_dim", in.rank()));
    PARTIR_ASSIGN_OR_RETURN(int64_t concat_dim,
                            DimAttr("concat_dim", in.rank()));
    PARTIR_ASSIGN_OR_RETURN(const std::vector<std::string>* axes,
                            Attr<std::vector<std::string>>("axes"));
    PARTIR_ASSIGN_OR_RETURN(int64_t group, Group(*axes, /*sized=*/true));
    Dims dims = in.dims();
    if (dims[slice_dim] % group != 0) {
      return Bad("slice dim ", slice_dim, " of ", in.ToString(),
                 " is not divisible by the group size ", group);
    }
    dims[slice_dim] /= group;
    PARTIR_ASSIGN_OR_RETURN(dims[concat_dim], Times(dims[concat_dim], group));
    return Tensor(std::move(dims), in.dtype());
  }

  const Operation& op_;
  const Mesh* mesh_;
};

}  // namespace

StatusOr<Type> InferResultType(const Operation& op, const Mesh* mesh) {
  return Rule(op, mesh).Infer();
}

}  // namespace partir
