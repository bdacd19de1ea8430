#include "src/interp/tensor.h"

#include <algorithm>
#include <cmath>

namespace partir {

std::atomic<int64_t> Tensor::allocations_{0};

namespace {
thread_local std::atomic<int64_t>* tls_allocation_sink = nullptr;
}  // namespace

void Tensor::RecordAllocation() {
  allocations_.fetch_add(1, std::memory_order_relaxed);
  if (tls_allocation_sink != nullptr) {
    tls_allocation_sink->fetch_add(1, std::memory_order_relaxed);
  }
}

AllocationScope::AllocationScope(std::atomic<int64_t>* sink)
    : active_(sink != nullptr), saved_(nullptr) {
  if (active_) {
    saved_ = tls_allocation_sink;
    tls_allocation_sink = sink;
  }
}

AllocationScope::~AllocationScope() {
  if (active_) tls_allocation_sink = saved_;
}

Tensor Tensor::SliceChunk(int64_t dim, int64_t chunk, int64_t count) const {
  PARTIR_CHECK(dims_.at(dim) % count == 0) << "chunk count must divide dim";
  PARTIR_CHECK(chunk >= 0 && chunk < count);
  std::vector<int64_t> out_dims = dims_;
  out_dims[dim] /= count;
  Tensor out(out_dims);
  std::vector<int64_t> start(dims_.size(), 0);
  start[dim] = chunk * out_dims[dim];
  CopyBox(*this, start, out_dims, out, std::vector<int64_t>(dims_.size(), 0));
  return out;
}

Tensor Tensor::Concat(const std::vector<Tensor>& parts, int64_t dim) {
  PARTIR_CHECK(!parts.empty());
  std::vector<int64_t> out_dims = parts.front().dims();
  int64_t total = 0;
  for (const Tensor& part : parts) {
    PARTIR_CHECK(part.rank() == static_cast<int>(out_dims.size()))
        << "concat parts differ in rank";
    for (int d = 0; d < part.rank(); ++d) {
      PARTIR_CHECK(d == dim || part.dim(d) == out_dims[d])
          << "concat parts disagree on dim " << d;
    }
    total += part.dim(dim);
  }
  out_dims[dim] = total;
  Tensor out(out_dims);
  const std::vector<int64_t> origin(out_dims.size(), 0);
  std::vector<int64_t> start = origin;
  for (const Tensor& part : parts) {
    CopyBox(part, origin, part.dims(), out, start);
    start[dim] += part.dim(dim);
  }
  return out;
}

Tensor Tensor::Random(std::vector<int64_t> dims, uint64_t seed) {
  Tensor out(std::move(dims));
  // SplitMix64, deterministic across platforms.
  uint64_t state = seed + 0x9E3779B97F4A7C15ULL;
  for (int64_t i = 0; i < out.size(); ++i) {
    state += 0x9E3779B97F4A7C15ULL;
    uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    z = z ^ (z >> 31);
    out.at(i) = static_cast<float>(z % 100000) / 100000.0f - 0.5f;
  }
  return out;
}

float Tensor::MaxAbsDiff(const Tensor& a, const Tensor& b) {
  PARTIR_CHECK(a.dims() == b.dims()) << "diff shape mismatch";
  float max_diff = 0.0f;
  for (int64_t i = 0; i < a.size(); ++i) {
    max_diff = std::max(max_diff, std::fabs(a.at(i) - b.at(i)));
  }
  return max_diff;
}

void StridedLoops::Collapse() {
  size_t kept = 0;
  for (size_t d = 0; d < dims.size(); ++d) {
    const Dim dim = dims[d];
    if (dim.size == 1) continue;
    if (kept > 0 && dims[kept - 1].a_stride == dim.a_stride * dim.size &&
        dims[kept - 1].b_stride == dim.b_stride * dim.size) {
      Dim& outer = dims[kept - 1];
      outer = Dim{outer.size * dim.size, dim.a_stride, dim.b_stride};
      continue;
    }
    dims[kept++] = dim;
  }
  dims.resize(kept);
  if (dims.empty()) Add(1, 0, 0);
}

void CopyBox(const Tensor& src, const std::vector<int64_t>& src_start,
             const std::vector<int64_t>& extent, Tensor& dst,
             const std::vector<int64_t>& dst_start) {
  const int rank = src.rank();
  PARTIR_CHECK(dst.rank() == rank &&
               static_cast<int>(extent.size()) == rank &&
               static_cast<int>(src_start.size()) == rank &&
               static_cast<int>(dst_start.size()) == rank)
      << "box rank mismatch";
  const std::vector<int64_t> src_strides = src.Strides();
  const std::vector<int64_t> dst_strides = dst.Strides();
  StridedLoops box;
  box.dims.reserve(rank);
  int64_t src_offset = 0, dst_offset = 0;
  for (int d = 0; d < rank; ++d) {
    PARTIR_CHECK(extent[d] >= 0 && src_start[d] >= 0 && dst_start[d] >= 0 &&
                 src_start[d] + extent[d] <= src.dim(d) &&
                 dst_start[d] + extent[d] <= dst.dim(d))
        << "box out of bounds on dim " << d;
    box.Add(extent[d], src_strides[d], dst_strides[d]);
    src_offset += src_start[d] * src_strides[d];
    dst_offset += dst_start[d] * dst_strides[d];
  }
  if (box.NumElements() == 0) return;
  box.Collapse();
  const int64_t row = box.inner().size;
  const int64_t src_step = box.inner().a_stride;
  const int64_t dst_step = box.inner().b_stride;
  const float* from = src.data().data() + src_offset;
  float* to = dst.data().data() + dst_offset;
  box.ForEachRow([&](int64_t a, int64_t b) {
    if (src_step == 1 && dst_step == 1) {
      std::copy(from + a, from + a + row, to + b);
      return;
    }
    // A box one element wide in its innermost dims: rows are strided.
    for (int64_t j = 0; j < row; ++j) {
      to[b + j * dst_step] = from[a + j * src_step];
    }
  });
}

void ForEachIndex(const std::vector<int64_t>& dims,
                  const std::function<void(const std::vector<int64_t>&)>& fn) {
  std::vector<int64_t> index(dims.size(), 0);
  int64_t total = Tensor::NumElementsOf(dims);
  for (int64_t count = 0; count < total; ++count) {
    fn(index);
    for (int i = static_cast<int>(dims.size()) - 1; i >= 0; --i) {
      if (++index[i] < dims[i]) break;
      index[i] = 0;
    }
  }
}

}  // namespace partir
