#include "src/interp/interpreter.h"

#include <algorithm>
#include <cmath>

#include "src/ir/op_kind.h"

namespace partir {

namespace {

/**
 * out[i] = fn(in[i]). Each group of four loads before it stores, so `out`
 * may be exactly `in` and the group vectorizes at -O2.
 */
template <typename Fn>
void MapSpan(const float* in, float* out, int64_t n, Fn fn) {
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float x0 = in[i], x1 = in[i + 1], x2 = in[i + 2], x3 = in[i + 3];
    out[i] = fn(x0);
    out[i + 1] = fn(x1);
    out[i + 2] = fn(x2);
    out[i + 3] = fn(x3);
  }
  for (; i < n; ++i) out[i] = fn(in[i]);
}

/** out[i] = fn(a[i], b[i]), grouped as MapSpan. */
template <typename Fn>
void MapSpan(const float* a, const float* b, float* out, int64_t n, Fn fn) {
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float a0 = a[i], a1 = a[i + 1], a2 = a[i + 2], a3 = a[i + 3];
    const float b0 = b[i], b1 = b[i + 1], b2 = b[i + 2], b3 = b[i + 3];
    out[i] = fn(a0, b0);
    out[i + 1] = fn(a1, b1);
    out[i + 2] = fn(a2, b2);
    out[i + 3] = fn(a3, b3);
  }
  for (; i < n; ++i) out[i] = fn(a[i], b[i]);
}

}  // namespace

void ApplyUnarySpan(OpKind kind, const float* in, float* out, int64_t n) {
  switch (kind) {
    case OpKind::kNeg:
      return MapSpan(in, out, n, [](float x) { return -x; });
    case OpKind::kExp:
      return MapSpan(in, out, n, [](float x) { return std::exp(x); });
    case OpKind::kLog:
      return MapSpan(in, out, n, [](float x) { return std::log(x); });
    case OpKind::kTanh:
      return MapSpan(in, out, n, [](float x) { return std::tanh(x); });
    case OpKind::kRsqrt:
      return MapSpan(in, out, n,
                     [](float x) { return 1.0f / std::sqrt(x); });
    case OpKind::kSqrt:
      return MapSpan(in, out, n, [](float x) { return std::sqrt(x); });
    case OpKind::kLogistic:
      return MapSpan(in, out, n,
                     [](float x) { return 1.0f / (1.0f + std::exp(-x)); });
    default: PARTIR_UNREACHABLE("not unary");
  }
}

void ApplyBinarySpan(OpKind kind, const float* a, const float* b, float* out,
                     int64_t n) {
  switch (kind) {
    case OpKind::kAdd:
      return MapSpan(a, b, out, n, [](float x, float y) { return x + y; });
    case OpKind::kSub:
      return MapSpan(a, b, out, n, [](float x, float y) { return x - y; });
    case OpKind::kMul:
      return MapSpan(a, b, out, n, [](float x, float y) { return x * y; });
    case OpKind::kDiv:
      return MapSpan(a, b, out, n, [](float x, float y) { return x / y; });
    case OpKind::kMax:
      return MapSpan(a, b, out, n,
                     [](float x, float y) { return std::max(x, y); });
    case OpKind::kMin:
      return MapSpan(a, b, out, n,
                     [](float x, float y) { return std::min(x, y); });
    case OpKind::kPow:
      return MapSpan(a, b, out, n,
                     [](float x, float y) { return std::pow(x, y); });
    default: PARTIR_UNREACHABLE("not binary");
  }
}

namespace {

Tensor EvalDot(const Operation& op, const Tensor& lhs, const Tensor& rhs) {
  const auto& lc = op.attrs().Get<std::vector<int64_t>>("lhs_contract");
  const auto& rc = op.attrs().Get<std::vector<int64_t>>("rhs_contract");
  const auto& lb = op.attrs().Get<std::vector<int64_t>>("lhs_batch");
  const auto& rb = op.attrs().Get<std::vector<int64_t>>("rhs_batch");
  auto contains = [](const std::vector<int64_t>& v, int64_t x) {
    return std::find(v.begin(), v.end(), x) != v.end();
  };
  std::vector<int64_t> lhs_free, rhs_free;
  for (int i = 0; i < lhs.rank(); ++i) {
    if (!contains(lc, i) && !contains(lb, i)) lhs_free.push_back(i);
  }
  for (int i = 0; i < rhs.rank(); ++i) {
    if (!contains(rc, i) && !contains(rb, i)) rhs_free.push_back(i);
  }
  std::vector<int64_t> out_dims;
  for (int64_t b : lb) out_dims.push_back(lhs.dim(b));
  for (int64_t f : lhs_free) out_dims.push_back(lhs.dim(f));
  for (int64_t f : rhs_free) out_dims.push_back(rhs.dim(f));
  std::vector<int64_t> contract_dims;
  for (int64_t c : lc) contract_dims.push_back(lhs.dim(c));

  Tensor out(out_dims);
  std::vector<int64_t> lhs_index(lhs.rank()), rhs_index(rhs.rank());
  ForEachIndex(out_dims, [&](const std::vector<int64_t>& out_index) {
    double acc = 0.0;
    ForEachIndex(contract_dims, [&](const std::vector<int64_t>& k_index) {
      size_t pos = 0;
      for (size_t i = 0; i < lb.size(); ++i, ++pos) {
        lhs_index[lb[i]] = out_index[pos];
        rhs_index[rb[i]] = out_index[pos];
      }
      for (size_t i = 0; i < lhs_free.size(); ++i) {
        lhs_index[lhs_free[i]] = out_index[pos + i];
      }
      for (size_t i = 0; i < rhs_free.size(); ++i) {
        rhs_index[rhs_free[i]] = out_index[pos + lhs_free.size() + i];
      }
      for (size_t i = 0; i < lc.size(); ++i) {
        lhs_index[lc[i]] = k_index[i];
        rhs_index[rc[i]] = k_index[i];
      }
      acc += static_cast<double>(lhs.Get(lhs_index)) *
             static_cast<double>(rhs.Get(rhs_index));
    });
    out.Set(out_index, static_cast<float>(acc));
  });
  return out;
}

Tensor EvalReduce(const Operation& op, const Tensor& in) {
  const auto& dims = op.attrs().Get<std::vector<int64_t>>("dims");
  const std::string& reduction = op.attrs().Get<std::string>("reduction");
  auto contains = [&](int64_t x) {
    return std::find(dims.begin(), dims.end(), x) != dims.end();
  };
  std::vector<int64_t> out_dims;
  for (int i = 0; i < in.rank(); ++i) {
    if (!contains(i)) out_dims.push_back(in.dim(i));
  }
  float init = reduction == "max" ? -std::numeric_limits<float>::infinity()
                                  : 0.0f;
  Tensor out(out_dims, init);
  ForEachIndex(in.dims(), [&](const std::vector<int64_t>& index) {
    std::vector<int64_t> out_index;
    for (int i = 0; i < in.rank(); ++i) {
      if (!contains(i)) out_index.push_back(index[i]);
    }
    float& slot = out.data()[out.Offset(out_index)];
    float v = in.Get(index);
    slot = reduction == "max" ? std::max(slot, v) : slot + v;
  });
  return out;
}

Tensor EvalBroadcastInDim(const Operation& op, const Tensor& in) {
  const auto& bcast = op.attrs().Get<std::vector<int64_t>>("broadcast_dims");
  const auto& out_dims = op.result()->tensor_type().dims();
  Tensor out(out_dims);
  std::vector<int64_t> in_index(in.rank());
  ForEachIndex(out_dims, [&](const std::vector<int64_t>& out_index) {
    for (int i = 0; i < in.rank(); ++i) in_index[i] = out_index[bcast[i]];
    out.Set(out_index, in.Get(in_index));
  });
  return out;
}

// SAME-padding amounts for one spatial dim.
int64_t PadLow(int64_t in, int64_t out, int64_t k, int64_t stride) {
  int64_t pad_total = std::max<int64_t>((out - 1) * stride + k - in, 0);
  return pad_total / 2;
}

Tensor EvalConvolution(const Operation& op, const Tensor& in,
                       const Tensor& filter) {
  const auto& strides = op.attrs().Get<std::vector<int64_t>>("strides");
  const auto& out_dims = op.result()->tensor_type().dims();
  Tensor out(out_dims);
  int64_t kh = filter.dim(0), kw = filter.dim(1);
  int64_t ph = PadLow(in.dim(1), out_dims[1], kh, strides[0]);
  int64_t pw = PadLow(in.dim(2), out_dims[2], kw, strides[1]);
  for (int64_t n = 0; n < out_dims[0]; ++n) {
    for (int64_t oh = 0; oh < out_dims[1]; ++oh) {
      for (int64_t ow = 0; ow < out_dims[2]; ++ow) {
        for (int64_t oc = 0; oc < out_dims[3]; ++oc) {
          double acc = 0.0;
          for (int64_t fh = 0; fh < kh; ++fh) {
            int64_t ih = oh * strides[0] + fh - ph;
            if (ih < 0 || ih >= in.dim(1)) continue;
            for (int64_t fw = 0; fw < kw; ++fw) {
              int64_t iw = ow * strides[1] + fw - pw;
              if (iw < 0 || iw >= in.dim(2)) continue;
              for (int64_t ic = 0; ic < in.dim(3); ++ic) {
                acc += static_cast<double>(in.Get({n, ih, iw, ic})) *
                       static_cast<double>(filter.Get({fh, fw, ic, oc}));
              }
            }
          }
          out.Set({n, oh, ow, oc}, static_cast<float>(acc));
        }
      }
    }
  }
  return out;
}

Tensor EvalConvInputGrad(const Operation& op, const Tensor& gout,
                         const Tensor& filter) {
  const auto& strides = op.attrs().Get<std::vector<int64_t>>("strides");
  const auto& in_dims = op.result()->tensor_type().dims();
  Tensor gin(in_dims);
  int64_t kh = filter.dim(0), kw = filter.dim(1);
  int64_t ph = PadLow(in_dims[1], gout.dim(1), kh, strides[0]);
  int64_t pw = PadLow(in_dims[2], gout.dim(2), kw, strides[1]);
  for (int64_t n = 0; n < gout.dim(0); ++n) {
    for (int64_t oh = 0; oh < gout.dim(1); ++oh) {
      for (int64_t ow = 0; ow < gout.dim(2); ++ow) {
        for (int64_t oc = 0; oc < gout.dim(3); ++oc) {
          float g = gout.Get({n, oh, ow, oc});
          for (int64_t fh = 0; fh < kh; ++fh) {
            int64_t ih = oh * strides[0] + fh - ph;
            if (ih < 0 || ih >= in_dims[1]) continue;
            for (int64_t fw = 0; fw < kw; ++fw) {
              int64_t iw = ow * strides[1] + fw - pw;
              if (iw < 0 || iw >= in_dims[2]) continue;
              for (int64_t ic = 0; ic < in_dims[3]; ++ic) {
                gin.data()[gin.Offset({n, ih, iw, ic})] +=
                    g * filter.Get({fh, fw, ic, oc});
              }
            }
          }
        }
      }
    }
  }
  return gin;
}

Tensor EvalConvFilterGrad(const Operation& op, const Tensor& gout,
                          const Tensor& in) {
  const auto& strides = op.attrs().Get<std::vector<int64_t>>("strides");
  const auto& f_dims = op.result()->tensor_type().dims();
  Tensor gf(f_dims);
  int64_t kh = f_dims[0], kw = f_dims[1];
  int64_t ph = PadLow(in.dim(1), gout.dim(1), kh, strides[0]);
  int64_t pw = PadLow(in.dim(2), gout.dim(2), kw, strides[1]);
  for (int64_t n = 0; n < gout.dim(0); ++n) {
    for (int64_t oh = 0; oh < gout.dim(1); ++oh) {
      for (int64_t ow = 0; ow < gout.dim(2); ++ow) {
        for (int64_t oc = 0; oc < gout.dim(3); ++oc) {
          float g = gout.Get({n, oh, ow, oc});
          for (int64_t fh = 0; fh < kh; ++fh) {
            int64_t ih = oh * strides[0] + fh - ph;
            if (ih < 0 || ih >= in.dim(1)) continue;
            for (int64_t fw = 0; fw < kw; ++fw) {
              int64_t iw = ow * strides[1] + fw - pw;
              if (iw < 0 || iw >= in.dim(2)) continue;
              for (int64_t ic = 0; ic < in.dim(3); ++ic) {
                gf.data()[gf.Offset({fh, fw, ic, oc})] +=
                    g * in.Get({n, ih, iw, ic});
              }
            }
          }
        }
      }
    }
  }
  return gf;
}

class Interpreter {
 public:
  explicit Interpreter(Env& env) : env_(env) {}

  const Tensor& Lookup(const Value* value) const {
    auto it = env_.find(value);
    PARTIR_CHECK(it != env_.end()) << "value not in environment";
    return it->second;
  }

  void Bind(const Value* value, Tensor tensor) {
    env_[value] = std::move(tensor);
  }

  std::vector<Tensor> Run(const Block& block) {
    for (const auto& op : block.ops()) {
      if (op->kind() == OpKind::kReturn || op->kind() == OpKind::kYield) {
        std::vector<Tensor> results;
        for (const Value* operand : op->operands()) {
          results.push_back(Lookup(operand));
        }
        return results;
      }
      Execute(*op);
    }
    return {};
  }

  void Execute(const Operation& op) {
    if (op.kind() == OpKind::kLoop) {
      ExecuteLoop(op);
      return;
    }
    if (op.kind() == OpKind::kPSlice) {
      const Tensor& operand = Lookup(op.operand(0));
      const Tensor& range = Lookup(op.operand(1));
      int64_t dim = op.attrs().Get<int64_t>("dim");
      int64_t count = op.operand(1)->type().range().size();
      int64_t chunk = static_cast<int64_t>(range.at(0));
      Bind(op.result(), operand.SliceChunk(dim, chunk, count));
      return;
    }
    std::vector<Tensor> operands;
    operands.reserve(op.operands().size());
    for (const Value* operand : op.operands()) {
      operands.push_back(Lookup(operand));
    }
    std::vector<Tensor> results = EvalOp(op, operands);
    PARTIR_CHECK(results.size() == static_cast<size_t>(op.num_results()));
    for (int i = 0; i < op.num_results(); ++i) {
      Bind(op.result(i), std::move(results[i]));
    }
  }

  void ExecuteLoop(const Operation& op) {
    const std::string& action = op.attrs().Get<std::string>("action");
    const Block& body = op.region(0).block();
    const Value* range_arg = body.arg(0);
    int64_t count = range_arg->type().range().size();

    auto run_iteration = [&](int64_t r) {
      Bind(range_arg, Tensor({}, std::vector<float>{static_cast<float>(r)}));
      std::vector<Tensor> yielded = Run(body);
      PARTIR_CHECK(yielded.size() == 1) << "loop must yield one value";
      return yielded[0];
    };

    if (action == "any") {
      Bind(op.result(), run_iteration(0));
      return;
    }
    if (action == "sum") {
      // #sum loops support any associative combiner via the "reduction"
      // attribute (the paper's footnote 4); default is addition.
      OpKind combine =
          op.attrs().GetOr<std::string>("reduction", "sum") == "max"
              ? OpKind::kMax
              : OpKind::kAdd;
      Tensor acc = run_iteration(0);
      for (int64_t r = 1; r < count; ++r) {
        Tensor part = run_iteration(r);
        PARTIR_CHECK(part.dims() == acc.dims()) << "#sum shape mismatch";
        ApplyBinarySpan(combine, acc.data().data(), part.data().data(),
                        acc.data().data(), acc.size());
      }
      Bind(op.result(), std::move(acc));
      return;
    }
    PARTIR_CHECK(action == "tile") << "unknown loop action";
    int64_t dim = op.attrs().Get<int64_t>("tile_dim");
    std::vector<Tensor> parts;
    parts.reserve(count);
    for (int64_t r = 0; r < count; ++r) parts.push_back(run_iteration(r));
    Bind(op.result(), Tensor::Concat(parts, dim));
  }

 private:
  Env& env_;
};

}  // namespace

void EvalOpInEnv(const Operation& op, Env& env) {
  Interpreter(env).Execute(op);
}

std::vector<Tensor> EvalOp(const Operation& op,
                           const std::vector<Tensor>& operands) {
  std::vector<const Tensor*> refs;
  refs.reserve(operands.size());
  for (const Tensor& operand : operands) refs.push_back(&operand);
  return EvalOpRef(op, refs);
}

std::vector<Tensor> EvalOpRef(const Operation& op,
                              const std::vector<const Tensor*>& operands) {
  OpKind kind = op.kind();
  if (IsUnaryElementwise(kind) || IsBinaryElementwise(kind)) {
    Tensor out(operands[0]->dims());
    const float* a = operands[0]->data().data();
    if (IsUnaryElementwise(kind)) {
      ApplyUnarySpan(kind, a, out.data().data(), out.size());
    } else {
      PARTIR_CHECK(operands[1]->dims() == out.dims())
          << "elementwise shape mismatch";
      ApplyBinarySpan(kind, a, operands[1]->data().data(), out.data().data(),
                      out.size());
    }
    return {std::move(out)};
  }
  switch (kind) {
    case OpKind::kConstant: {
      const auto& dims = op.result()->tensor_type().dims();
      if (op.attrs().Has("data")) {
        return {Tensor(dims, op.attrs().Get<std::vector<float>>("data"))};
      }
      return {Tensor(dims,
                     static_cast<float>(op.attrs().Get<double>("splat")))};
    }
    case OpKind::kIota: {
      const auto& dims = op.result()->tensor_type().dims();
      int64_t dim = op.attrs().Get<int64_t>("dim");
      Tensor out(dims);
      ForEachIndex(dims, [&](const std::vector<int64_t>& index) {
        out.Set(index, static_cast<float>(index[dim]));
      });
      return {std::move(out)};
    }
    case OpKind::kDot:
      return {EvalDot(op, *operands[0], *operands[1])};
    case OpKind::kTranspose: {
      const auto& perm = op.attrs().Get<std::vector<int64_t>>("perm");
      const auto& out_dims = op.result()->tensor_type().dims();
      Tensor out(out_dims);
      std::vector<int64_t> in_index(perm.size());
      ForEachIndex(out_dims, [&](const std::vector<int64_t>& out_index) {
        for (size_t i = 0; i < perm.size(); ++i) {
          in_index[perm[i]] = out_index[i];
        }
        out.Set(out_index, operands[0]->Get(in_index));
      });
      return {std::move(out)};
    }
    case OpKind::kReshape:
      return {Tensor(op.result()->tensor_type().dims(),
                     operands[0]->data())};
    case OpKind::kReduce:
      return {EvalReduce(op, *operands[0])};
    case OpKind::kBroadcastInDim:
      return {EvalBroadcastInDim(op, *operands[0])};
    case OpKind::kConcatenate: {
      int64_t dim = op.attrs().Get<int64_t>("dim");
      std::vector<Tensor> parts;
      parts.reserve(operands.size());
      for (const Tensor* operand : operands) parts.push_back(*operand);
      return {Tensor::Concat(parts, dim)};
    }
    case OpKind::kStaticSlice: {
      const auto& starts = op.attrs().Get<std::vector<int64_t>>("starts");
      const auto& out_dims = op.result()->tensor_type().dims();
      Tensor out(out_dims);
      ForEachIndex(out_dims, [&](const std::vector<int64_t>& index) {
        std::vector<int64_t> src = index;
        for (size_t i = 0; i < src.size(); ++i) src[i] += starts[i];
        out.Set(index, operands[0]->Get(src));
      });
      return {std::move(out)};
    }
    case OpKind::kGather: {
      const Tensor& table = *operands[0];
      const Tensor& indices = *operands[1];
      const auto& out_dims = op.result()->tensor_type().dims();
      Tensor out(out_dims);
      int64_t row_size = table.size() / table.dim(0);
      for (int64_t i = 0; i < indices.size(); ++i) {
        int64_t row = static_cast<int64_t>(indices.at(i));
        PARTIR_CHECK(row >= 0 && row < table.dim(0)) << "gather index OOB";
        for (int64_t j = 0; j < row_size; ++j) {
          out.at(i * row_size + j) = table.at(row * row_size + j);
        }
      }
      return {std::move(out)};
    }
    case OpKind::kScatterAdd: {
      // Indices may have any rank; updates extend them with the row shape.
      const Tensor& indices = *operands[0];
      const Tensor& updates = *operands[1];
      Tensor out(op.result()->tensor_type().dims());
      int64_t row_size = out.dim(0) == 0 ? 0 : out.size() / out.dim(0);
      for (int64_t i = 0; i < indices.size(); ++i) {
        int64_t row = static_cast<int64_t>(indices.at(i));
        PARTIR_CHECK(row >= 0 && row < out.dim(0)) << "scatter index OOB";
        for (int64_t j = 0; j < row_size; ++j) {
          out.at(row * row_size + j) += updates.at(i * row_size + j);
        }
      }
      return {std::move(out)};
    }
    case OpKind::kConvolution:
      return {EvalConvolution(op, *operands[0], *operands[1])};
    case OpKind::kConvInputGrad:
      return {EvalConvInputGrad(op, *operands[0], *operands[1])};
    case OpKind::kConvFilterGrad:
      return {EvalConvFilterGrad(op, *operands[0], *operands[1])};
    case OpKind::kTag:
      return {*operands[0]};
    default:
      PARTIR_UNREACHABLE("unsupported op in reference interpreter: "
                         << OpKindName(kind));
  }
}

std::vector<Tensor> Evaluate(const Func& func,
                             const std::vector<Tensor>& inputs) {
  PARTIR_CHECK(static_cast<int>(inputs.size()) == func.body().num_args())
      << "input arity mismatch";
  Env env;
  Interpreter interp(env);
  for (int i = 0; i < func.body().num_args(); ++i) {
    PARTIR_CHECK(func.body().arg(i)->type().IsTensor());
    PARTIR_CHECK(inputs[i].dims() == func.body().arg(i)->tensor_type().dims())
        << "input " << i << " shape mismatch";
    interp.Bind(func.body().arg(i), inputs[i]);
  }
  return interp.Run(func.body());
}

std::vector<Tensor> MakeRandomInputs(const Func& func, uint64_t seed,
                                     float index_modulus) {
  std::vector<Tensor> inputs;
  for (int i = 0; i < func.body().num_args(); ++i) {
    const TensorType& type = func.body().arg(i)->tensor_type();
    Tensor t = Tensor::Random(type.dims(), seed + static_cast<uint64_t>(i));
    if (type.dtype() == DType::kS32) {
      // Integer inputs (indices): map to [0, index_modulus).
      float mod = index_modulus > 0 ? index_modulus : 1.0f;
      for (int64_t j = 0; j < t.size(); ++j) {
        float v = (t.at(j) + 0.5f) * mod;
        t.at(j) = static_cast<float>(
            std::min<int64_t>(static_cast<int64_t>(v),
                              static_cast<int64_t>(mod) - 1));
      }
    }
    inputs.push_back(std::move(t));
  }
  return inputs;
}

}  // namespace partir
