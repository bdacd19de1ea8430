/**
 * @file
 * A dense row-major float tensor used by the reference and SPMD interpreters.
 * Integer-typed IR values (gather/scatter indices) store their values in the
 * float payload; shapes in this project are small enough that exactness is
 * preserved (|int| < 2^24).
 */
#ifndef PARTIR_INTERP_TENSOR_H_
#define PARTIR_INTERP_TENSOR_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <numeric>
#include <vector>

#include "src/support/check.h"

namespace partir {

/** Dense row-major tensor of floats. */
class Tensor {
 public:
  Tensor() = default;
  explicit Tensor(std::vector<int64_t> dims, float fill = 0.0f)
      : dims_(std::move(dims)),
        data_(NumElementsOf(dims_), fill) {
    RecordAllocation();
  }
  Tensor(std::vector<int64_t> dims, std::vector<float> data)
      : dims_(std::move(dims)), data_(std::move(data)) {
    PARTIR_CHECK(static_cast<int64_t>(data_.size()) == NumElementsOf(dims_))
        << "tensor data size mismatch";
  }

  static int64_t NumElementsOf(const std::vector<int64_t>& dims) {
    return std::accumulate(dims.begin(), dims.end(), int64_t{1},
                           std::multiplies<int64_t>());
  }

  const std::vector<int64_t>& dims() const { return dims_; }
  int64_t dim(int i) const { return dims_.at(i); }
  int rank() const { return static_cast<int>(dims_.size()); }
  int64_t size() const { return static_cast<int64_t>(data_.size()); }

  const std::vector<float>& data() const { return data_; }
  std::vector<float>& data() { return data_; }

  float& at(int64_t flat) { return data_.at(flat); }
  float at(int64_t flat) const { return data_.at(flat); }

  /** Row-major strides of a shape. */
  static std::vector<int64_t> StridesOf(const std::vector<int64_t>& dims) {
    std::vector<int64_t> strides(dims.size(), 1);
    for (int i = static_cast<int>(dims.size()) - 2; i >= 0; --i) {
      strides[i] = strides[i + 1] * dims[i + 1];
    }
    return strides;
  }

  /** Row-major strides. */
  std::vector<int64_t> Strides() const { return StridesOf(dims_); }

  /** Flat offset of a multi-index. */
  int64_t Offset(const std::vector<int64_t>& index) const {
    PARTIR_CHECK(index.size() == dims_.size());
    int64_t offset = 0;
    int64_t stride = 1;
    for (int i = static_cast<int>(dims_.size()) - 1; i >= 0; --i) {
      PARTIR_CHECK(index[i] >= 0 && index[i] < dims_[i]) << "index OOB";
      offset += index[i] * stride;
      stride *= dims_[i];
    }
    return offset;
  }

  float Get(const std::vector<int64_t>& index) const {
    return data_[Offset(index)];
  }
  void Set(const std::vector<int64_t>& index, float value) {
    data_[Offset(index)] = value;
  }

  /**
   * Reinterprets the existing buffer under new dims without reallocating
   * (element counts must match) — how the compiled executor recycles an
   * arena buffer for a differently-shaped value of the same size.
   */
  void ResetDims(std::vector<int64_t> dims) {
    PARTIR_CHECK(NumElementsOf(dims) == size()) << "ResetDims size mismatch";
    dims_ = std::move(dims);
  }

  /** Extracts the `chunk`-th of `count` equal contiguous chunks on `dim`. */
  Tensor SliceChunk(int64_t dim, int64_t chunk, int64_t count) const;

  /** Concatenates tensors along `dim`. */
  static Tensor Concat(const std::vector<Tensor>& parts, int64_t dim);

  /** Returns a filled tensor of random values in [-0.5, 0.5] (seeded). */
  static Tensor Random(std::vector<int64_t> dims, uint64_t seed);

  /** Max |a-b| over all elements. */
  static float MaxAbsDiff(const Tensor& a, const Tensor& b);

  /**
   * Process-wide count of fresh-buffer constructions (the shape-filling
   * constructor above — per-op outputs in the interpreter, first-run arena
   * sizing in the compiled executor). Moves, copies and in-place buffer
   * reuse do not count; benches diff this across Run calls to compare the
   * backends' allocation traffic.
   */
  static int64_t allocations() {
    return allocations_.load(std::memory_order_relaxed);
  }

 private:
  friend class AllocationScope;

  /** Bumps the process-wide counter and the calling thread's scope sink. */
  static void RecordAllocation();

  static std::atomic<int64_t> allocations_;

  std::vector<int64_t> dims_;
  std::vector<float> data_;
};

/**
 * RAII: while alive, fresh-buffer constructions on *this thread* are also
 * counted into `sink` (the process-wide counter keeps counting). The SPMD
 * runtimes install one per device thread per Run, so RunStats::allocations
 * attributes traffic to a single Run even when Runs race in other threads
 * (the process-wide counter alone cannot). A null sink is a no-op that
 * leaves any enclosing scope in effect.
 */
class AllocationScope {
 public:
  explicit AllocationScope(std::atomic<int64_t>* sink);
  ~AllocationScope();

  AllocationScope(const AllocationScope&) = delete;
  AllocationScope& operator=(const AllocationScope&) = delete;

 private:
  bool active_;
  std::atomic<int64_t>* saved_;
};

/**
 * A row-major loop nest over up to two strided operands: dim d runs
 * dims[d].size times, advancing operand a by dims[d].a_stride elements and
 * operand b by dims[d].b_stride. CopyBox and the compiled executor's
 * strided kernels walk their buffers through it.
 */
struct StridedLoops {
  struct Dim {
    int64_t size;
    int64_t a_stride;
    int64_t b_stride;
  };
  std::vector<Dim> dims;

  /** Appends an inner dim. */
  void Add(int64_t size, int64_t a_stride, int64_t b_stride = 0) {
    dims.push_back(Dim{size, a_stride, b_stride});
  }

  /**
   * Drops size-1 dims and merges each dim into its outer neighbour when
   * both operands step contiguously across them. The row-major visiting
   * order is unchanged; at least one dim remains.
   */
  void Collapse();

  int64_t NumElements() const {
    int64_t n = 1;
    for (const Dim& dim : dims) n *= dim.size;
    return n;
  }

  /** The innermost dim (needs at least one). */
  const Dim& inner() const { return dims.back(); }

  /**
   * Calls row(a_offset, b_offset) at the start of every innermost row
   * (inner().size elements), in row-major order. Needs at least one dim.
   */
  template <typename RowFn>
  void ForEachRow(RowFn&& row) const {
    const int outer = static_cast<int>(dims.size()) - 1;
    int64_t rows = 1;
    for (int d = 0; d < outer; ++d) rows *= dims[d].size;
    std::vector<int64_t> index(outer, 0);
    int64_t a = 0, b = 0;
    for (int64_t r = 0; r < rows; ++r) {
      row(a, b);
      for (int d = outer - 1; d >= 0; --d) {
        a += dims[d].a_stride;
        b += dims[d].b_stride;
        if (++index[d] < dims[d].size) break;
        a -= dims[d].a_stride * dims[d].size;
        b -= dims[d].b_stride * dims[d].size;
        index[d] = 0;
      }
    }
  }
};

/**
 * Copies the box of `extent` elements starting at `src_start` in `src` to
 * `dst_start` in `dst`: one contiguous block copy per row of the box, where
 * a row spans the innermost dims the box covers whole in both tensors. The
 * data movement under SliceChunk, Concat, sharding, all_slice and the
 * compiled executor's loop chunks.
 */
void CopyBox(const Tensor& src, const std::vector<int64_t>& src_start,
             const std::vector<int64_t>& extent, Tensor& dst,
             const std::vector<int64_t>& dst_start);

/** Iterates all multi-indices of a shape, calling fn on each. */
void ForEachIndex(const std::vector<int64_t>& dims,
                  const std::function<void(const std::vector<int64_t>&)>& fn);

}  // namespace partir

#endif  // PARTIR_INTERP_TENSOR_H_
