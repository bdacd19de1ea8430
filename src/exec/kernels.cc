#include "src/exec/kernels.h"

#include <algorithm>
#include <limits>
#include <string>

#include "src/interp/interpreter.h"
#include "src/support/check.h"

namespace partir {
namespace exec {

void RunFusedChain(const FusedChain& chain, const std::vector<Tensor>& arena,
                   float* out, int64_t numel) {
  const float* in = arena[chain.input_slot].data().data();
  const ChainStep& last = chain.steps.back();
  float block[kChainBlock];
  for (int64_t k = 0; k < numel; k += kChainBlock) {
    const int64_t n = std::min(kChainBlock, numel - k);
    const float* v = in + k;
    for (const ChainStep& step : chain.steps) {
      // The last step writes the result; earlier ones the local block.
      float* dst = &step == &last ? out + k : block;
      if (IsUnaryElementwise(step.kind)) {
        ApplyUnarySpan(step.kind, v, dst, n);
      } else if (step.external_slot < 0) {
        ApplyBinarySpan(step.kind, v, v, dst, n);
      } else {
        const float* e = arena[step.external_slot].data().data() + k;
        ApplyBinarySpan(step.kind, step.carried_lhs ? v : e,
                        step.carried_lhs ? e : v, dst, n);
      }
      v = dst;
    }
  }
}

namespace {

bool Contains(const std::vector<int64_t>& v, int64_t x) {
  return std::find(v.begin(), v.end(), x) != v.end();
}

/** Every offset `loops` visits in operand a (or b), in row-major order. */
void ExpandOffsets(const StridedLoops& loops, bool operand_b,
                   std::vector<int64_t>& out) {
  out.clear();
  const int64_t n = loops.inner().size;
  const int64_t step =
      operand_b ? loops.inner().b_stride : loops.inner().a_stride;
  loops.ForEachRow([&](int64_t a, int64_t b) {
    const int64_t base = operand_b ? b : a;
    for (int64_t j = 0; j < n; ++j) out.push_back(base + j * step);
  });
}

/**
 * out[b, i, j] = sum_k lhs[b, i, k] * rhs[b, k, j], blocked over i and j.
 * Each output element accumulates in double over ascending k — the exact
 * summation order of the interpreter's EvalDot — while the j loop reads
 * rhs rows unit-stride (packed first when the rhs free dims are not
 * already its innermost contiguous run).
 */
void RunDot(const StridedKernel& kernel, const float* lhs, const float* rhs,
            float* out) {
  constexpr int64_t kBlockI = 4;
  constexpr int64_t kBlockJ = 64;
  // Offset tables, expanded once per call; reused across calls per thread.
  struct Tables {
    std::vector<int64_t> lhs_batch, rhs_batch, rows, cols, lhs_k, rhs_k;
    std::vector<int64_t> row_start;
    std::vector<float> packed;
  };
  thread_local Tables t;
  ExpandOffsets(kernel.batch, false, t.lhs_batch);
  ExpandOffsets(kernel.batch, true, t.rhs_batch);
  ExpandOffsets(kernel.lhs_free, false, t.rows);
  ExpandOffsets(kernel.rhs_free, false, t.cols);
  ExpandOffsets(kernel.contract, false, t.lhs_k);
  ExpandOffsets(kernel.contract, true, t.rhs_k);
  const int64_t batches = static_cast<int64_t>(t.lhs_batch.size());
  const int64_t m = static_cast<int64_t>(t.rows.size());
  const int64_t n = static_cast<int64_t>(t.cols.size());
  const int64_t k = static_cast<int64_t>(t.lhs_k.size());
  const bool pack = n > 1 && !(kernel.rhs_free.dims.size() == 1 &&
                               kernel.rhs_free.inner().a_stride == 1);
  // Where row k of a batch's [K, N] rhs block starts: in rhs itself, or in
  // the packed copy.
  t.row_start.resize(k);
  for (int64_t kk = 0; kk < k; ++kk) {
    t.row_start[kk] = pack ? kk * n : t.rhs_k[kk];
  }
  if (pack) t.packed.resize(k * n);

  double acc[kBlockI][kBlockJ];
  for (int64_t b = 0; b < batches; ++b) {
    const float* lhs_b = lhs + t.lhs_batch[b];
    const float* rhs_rows = rhs + t.rhs_batch[b];
    if (pack) {
      for (int64_t kk = 0; kk < k; ++kk) {
        float* packed_row = t.packed.data() + kk * n;
        const float* src = rhs_rows + t.rhs_k[kk];
        for (int64_t j = 0; j < n; ++j) packed_row[j] = src[t.cols[j]];
      }
      rhs_rows = t.packed.data();
    }
    float* out_b = out + b * m * n;
    for (int64_t i0 = 0; i0 < m; i0 += kBlockI) {
      const int64_t ni = std::min(kBlockI, m - i0);
      for (int64_t j0 = 0; j0 < n; j0 += kBlockJ) {
        const int64_t nj = std::min(kBlockJ, n - j0);
        for (int64_t ii = 0; ii < ni; ++ii) {
          for (int64_t jj = 0; jj < nj; ++jj) acc[ii][jj] = 0.0;
        }
        // k ascending for every output element: the reference summation
        // order, with rhs rows read contiguously.
        for (int64_t kk = 0; kk < k; ++kk) {
          const float* bk = rhs_rows + t.row_start[kk] + j0;
          const float* ak = lhs_b + t.lhs_k[kk];
          for (int64_t ii = 0; ii < ni; ++ii) {
            const double aik = static_cast<double>(ak[t.rows[i0 + ii]]);
            double* acc_row = acc[ii];
            // Four columns per step, which the compiler vectorizes at -O2;
            // each column still sums its own k sequence.
            int64_t jj = 0;
            for (; jj + 4 <= nj; jj += 4) {
              acc_row[jj] += aik * static_cast<double>(bk[jj]);
              acc_row[jj + 1] += aik * static_cast<double>(bk[jj + 1]);
              acc_row[jj + 2] += aik * static_cast<double>(bk[jj + 2]);
              acc_row[jj + 3] += aik * static_cast<double>(bk[jj + 3]);
            }
            for (; jj < nj; ++jj) {
              acc_row[jj] += aik * static_cast<double>(bk[jj]);
            }
          }
        }
        for (int64_t ii = 0; ii < ni; ++ii) {
          float* orow = out_b + (i0 + ii) * n + j0;
          for (int64_t jj = 0; jj < nj; ++jj) {
            orow[jj] = static_cast<float>(acc[ii][jj]);
          }
        }
      }
    }
  }
}

/** out (row-major over `loops`) = in at each position's a offset. */
void RunCopy(const StridedLoops& loops, const float* in, float* out) {
  const int64_t n = loops.inner().size;
  const int64_t step = loops.inner().a_stride;
  loops.ForEachRow([&](int64_t a, int64_t) {
    const float* src = in + a;
    if (step == 1) {
      std::copy(src, src + n, out);
    } else if (step == 0) {
      std::fill(out, out + n, *src);
    } else {
      for (int64_t j = 0; j < n; ++j) out[j] = src[j * step];
    }
    out += n;
  });
}

/**
 * Folds the input, walked row-major, into its output positions: the
 * interpreter's EvalReduce order, so each output sees its reduced elements
 * in input row-major order starting from 0.0f (or -inf).
 */
void RunReduce(const StridedLoops& loops, bool is_max, const float* in,
               float* out, int64_t out_numel) {
  std::fill(out, out + out_numel,
            is_max ? -std::numeric_limits<float>::infinity() : 0.0f);
  const int64_t n = loops.inner().size;
  const int64_t in_step = loops.inner().a_stride;
  const int64_t out_step = loops.inner().b_stride;
  loops.ForEachRow([&](int64_t a, int64_t b) {
    const float* src = in + a;
    float* dst = out + b;
    if (out_step == 0) {
      // The innermost dim is reduced: the row folds into one output.
      float acc = *dst;
      if (is_max) {
        for (int64_t j = 0; j < n; ++j) acc = std::max(acc, src[j * in_step]);
      } else {
        for (int64_t j = 0; j < n; ++j) acc = acc + src[j * in_step];
      }
      *dst = acc;
    } else if (is_max) {
      for (int64_t j = 0; j < n; ++j) {
        dst[j * out_step] = std::max(dst[j * out_step], src[j * in_step]);
      }
    } else {
      for (int64_t j = 0; j < n; ++j) {
        dst[j * out_step] = dst[j * out_step] + src[j * in_step];
      }
    }
  });
}

}  // namespace

std::shared_ptr<const StridedKernel> MakeStridedKernel(const Operation& op) {
  if (op.kind() != OpKind::kDot && op.kind() != OpKind::kTranspose &&
      op.kind() != OpKind::kBroadcastInDim && op.kind() != OpKind::kReduce) {
    return nullptr;
  }
  auto kernel = std::make_shared<StridedKernel>();
  const std::vector<int64_t>& in_dims = op.operand(0)->tensor_type().dims();
  const std::vector<int64_t> in_strides = Tensor::StridesOf(in_dims);
  const int64_t in_rank = static_cast<int64_t>(in_dims.size());
  switch (op.kind()) {
    case OpKind::kDot: {
      const auto& lc = op.attrs().Get<std::vector<int64_t>>("lhs_contract");
      const auto& rc = op.attrs().Get<std::vector<int64_t>>("rhs_contract");
      const auto& lb = op.attrs().Get<std::vector<int64_t>>("lhs_batch");
      const auto& rb = op.attrs().Get<std::vector<int64_t>>("rhs_batch");
      const std::vector<int64_t>& rhs_dims =
          op.operand(1)->tensor_type().dims();
      const std::vector<int64_t> rhs_strides = Tensor::StridesOf(rhs_dims);
      kernel->kind = StridedKernel::Kind::kDot;
      for (size_t i = 0; i < lb.size(); ++i) {
        kernel->batch.Add(in_dims[lb[i]], in_strides[lb[i]],
                          rhs_strides[rb[i]]);
      }
      for (int64_t d = 0; d < in_rank; ++d) {
        if (!Contains(lc, d) && !Contains(lb, d)) {
          kernel->lhs_free.Add(in_dims[d], in_strides[d]);
        }
      }
      for (int64_t d = 0; d < static_cast<int64_t>(rhs_dims.size()); ++d) {
        if (!Contains(rc, d) && !Contains(rb, d)) {
          kernel->rhs_free.Add(rhs_dims[d], rhs_strides[d]);
        }
      }
      for (size_t i = 0; i < lc.size(); ++i) {
        kernel->contract.Add(in_dims[lc[i]], in_strides[lc[i]],
                             rhs_strides[rc[i]]);
      }
      break;
    }
    case OpKind::kTranspose:
      for (int64_t p : op.attrs().Get<std::vector<int64_t>>("perm")) {
        kernel->loops.Add(in_dims[p], in_strides[p]);
      }
      break;
    case OpKind::kBroadcastInDim: {
      const auto& bcast =
          op.attrs().Get<std::vector<int64_t>>("broadcast_dims");
      const std::vector<int64_t>& out_dims = op.result()->tensor_type().dims();
      std::vector<int64_t> steps(out_dims.size(), 0);
      for (int64_t i = 0; i < in_rank; ++i) steps[bcast[i]] = in_strides[i];
      for (size_t o = 0; o < out_dims.size(); ++o) {
        kernel->loops.Add(out_dims[o], steps[o]);
      }
      break;
    }
    case OpKind::kReduce: {
      const auto& dims = op.attrs().Get<std::vector<int64_t>>("dims");
      kernel->kind = op.attrs().Get<std::string>("reduction") == "max"
                         ? StridedKernel::Kind::kReduceMax
                         : StridedKernel::Kind::kReduceSum;
      const std::vector<int64_t> out_strides =
          Tensor::StridesOf(op.result()->tensor_type().dims());
      size_t kept = 0;
      for (int64_t d = 0; d < in_rank; ++d) {
        kernel->loops.Add(in_dims[d], in_strides[d],
                          Contains(dims, d) ? 0 : out_strides[kept++]);
      }
      break;
    }
    default:
      PARTIR_UNREACHABLE("no strided kernel for " << OpKindName(op.kind()));
  }
  if (kernel->kind == StridedKernel::Kind::kDot) {
    for (StridedLoops* nest : {&kernel->batch, &kernel->lhs_free,
                               &kernel->rhs_free, &kernel->contract}) {
      nest->Collapse();
    }
  } else {
    kernel->loops.Collapse();
  }
  return kernel;
}

void RunStridedKernel(const StridedKernel& kernel, const float* lhs,
                      const float* rhs, float* out, int64_t out_numel) {
  switch (kernel.kind) {
    case StridedKernel::Kind::kDot:
      RunDot(kernel, lhs, rhs, out);
      return;
    case StridedKernel::Kind::kCopy:
      if (out_numel > 0) RunCopy(kernel.loops, lhs, out);
      return;
    case StridedKernel::Kind::kReduceSum:
    case StridedKernel::Kind::kReduceMax:
      RunReduce(kernel.loops,
                kernel.kind == StridedKernel::Kind::kReduceMax, lhs, out,
                out_numel);
      return;
  }
}

}  // namespace exec
}  // namespace partir
