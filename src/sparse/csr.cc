#include "sparse/csr.h"

#include "tensor/parallel.h"
#include "tensor/simd.h"

namespace sgnn::sparse {

namespace {

/// Rows per SpMM/SpMV chunk: targets ~64k multiply-adds per chunk so chunk
/// dispatch overhead stays under ~1% of kernel time (docs/PERFORMANCE.md).
/// Boundaries depend only on the matrix shape, so results are identical at
/// any thread count (each output row is written by exactly one chunk).
int64_t RowGrain(int64_t n, int64_t nnz, int64_t f) {
  const int64_t avg_row_flops = (n > 0 ? nnz / n + 1 : 1) * (f > 0 ? f : 1);
  return parallel::GrainForFlops(avg_row_flops, int64_t{1} << 16);
}

/// Output rows [lo, hi) of the SpMM: each row sums its nonzeros' scaled x
/// rows in ascending p, compiled once per ISA by simd::Dispatch. `epilogue`
/// (simd::NoEpilogue, or the recurrence step simd::AffineRow over n x f
/// operands) runs on each row's tiles before they are stored.
template <typename Epilogue>
struct SpmmRows {
  static SGNN_SIMD_INLINE void Run(const int64_t* indptr,
                                   const int32_t* indices, const float* values,
                                   const float* x, int64_t f,
                                   Epilogue epilogue, int64_t lo, int64_t hi,
                                   float* out) {
    for (int64_t i = lo; i < hi; ++i) {
      const int64_t begin = indptr[i];
      simd::AccumulateRow<float, /*kSkipZero=*/false, /*kAccumulate=*/false>(
          indptr[i + 1] - begin,
          [&](int64_t t) {
            return simd::Term<float>{values[begin + t],
                                     x + indices[begin + t] * f};
          },
          f, out + i * f, epilogue.AtOffset(i * f));
    }
  }
};

}  // namespace

CsrMatrix::CsrMatrix(int64_t n, std::vector<int64_t> indptr,
                     std::vector<int32_t> indices, std::vector<float> values,
                     Device device)
    : n_(n),
      device_(device),
      indptr_(std::move(indptr)),
      indices_(std::move(indices)),
      values_(std::move(values)) {
  SGNN_CHECK(static_cast<int64_t>(indptr_.size()) == n_ + 1,
             "CsrMatrix: indptr must have n+1 entries");
  SGNN_CHECK(indices_.size() == values_.size(),
             "CsrMatrix: indices/values size mismatch");
  SGNN_CHECK(indptr_.empty() ||
                 indptr_.back() == static_cast<int64_t>(indices_.size()),
             "CsrMatrix: indptr end must equal nnz");
  Register();
}

CsrMatrix::CsrMatrix(const CsrMatrix& other)
    : n_(other.n_),
      device_(other.device_),
      indptr_(other.indptr_),
      indices_(other.indices_),
      values_(other.values_) {
  Register();
}

CsrMatrix& CsrMatrix::operator=(const CsrMatrix& other) {
  if (this == &other) return *this;
  Unregister();
  n_ = other.n_;
  device_ = other.device_;
  indptr_ = other.indptr_;
  indices_ = other.indices_;
  values_ = other.values_;
  Register();
  return *this;
}

CsrMatrix::CsrMatrix(CsrMatrix&& other) noexcept
    : n_(other.n_),
      device_(other.device_),
      indptr_(std::move(other.indptr_)),
      indices_(std::move(other.indices_)),
      values_(std::move(other.values_)) {
  other.n_ = 0;
  other.indptr_.clear();
  other.indices_.clear();
  other.values_.clear();
}

CsrMatrix& CsrMatrix::operator=(CsrMatrix&& other) noexcept {
  if (this == &other) return *this;
  Unregister();
  n_ = other.n_;
  device_ = other.device_;
  indptr_ = std::move(other.indptr_);
  indices_ = std::move(other.indices_);
  values_ = std::move(other.values_);
  other.n_ = 0;
  other.indptr_.clear();
  other.indices_.clear();
  other.values_.clear();
  return *this;
}

CsrMatrix::~CsrMatrix() { Unregister(); }

size_t CsrMatrix::bytes() const {
  return indptr_.size() * sizeof(int64_t) + indices_.size() * sizeof(int32_t) +
         values_.size() * sizeof(float);
}

void CsrMatrix::Register() const {
  if (bytes() > 0) DeviceTracker::Global().OnAlloc(device_, bytes());
}

void CsrMatrix::Unregister() const {
  if (bytes() > 0) DeviceTracker::Global().OnFree(device_, bytes());
}

void CsrMatrix::MoveToDevice(Device device) {
  if (device == device_) return;
  Unregister();
  device_ = device;
  Register();
}

void CsrMatrix::SpMM(const Matrix& x, Matrix* out) const {
  SGNN_CHECK(x.rows() == n_, "SpMM: input row count must equal n");
  SGNN_CHECK(out->rows() == n_ && out->cols() == x.cols(),
             "SpMM: output shape mismatch");
  SGNN_CHECK(out->data() != x.data(), "SpMM: output must not alias input");
  const int64_t f = x.cols();
  // Row-partitioned: each chunk owns a contiguous row range of `out`, so
  // the parallel result is bit-identical to the serial one.
  parallel::ParallelFor(
      0, n_, RowGrain(n_, nnz(), f), [&](int64_t lo, int64_t hi) {
        simd::Dispatch<SpmmRows<simd::NoEpilogue>>(
            indptr_.data(), indices_.data(), values_.data(), x.data(), f,
            simd::NoEpilogue{}, lo, hi, out->data());
      });
}

void CsrMatrix::SpMM(const Matrix& x, const ops::AffineEpilogue& ep,
                     Matrix* out) const {
  SGNN_CHECK(x.rows() == n_, "SpMM: input row count must equal n");
  SGNN_CHECK(out->rows() == n_ && out->cols() == x.cols(),
             "SpMM: output shape mismatch");
  for (const Matrix* in : {&x, ep.in1, ep.in2}) {
    if (in == nullptr) continue;
    SGNN_CHECK(in->rows() == n_ && in->cols() == x.cols(),
               "SpMM: epilogue operand shape mismatch");
    SGNN_CHECK(out->data() != in->data(), "SpMM: output must not alias input");
  }
  const int64_t f = x.cols();
  const simd::AffineRow row{ep.ca, ep.ci, ep.cp,
                            ep.in1 != nullptr ? ep.in1->data() : nullptr,
                            ep.in2 != nullptr ? ep.in2->data() : nullptr};
  parallel::ParallelFor(
      0, n_, RowGrain(n_, nnz(), f), [&](int64_t lo, int64_t hi) {
        simd::Dispatch<SpmmRows<simd::AffineRow>>(
            indptr_.data(), indices_.data(), values_.data(), x.data(), f, row,
            lo, hi, out->data());
      });
}

void CsrMatrix::SpMV(const std::vector<float>& x,
                     std::vector<float>* y) const {
  SGNN_CHECK(static_cast<int64_t>(x.size()) == n_, "SpMV: size mismatch");
  y->assign(static_cast<size_t>(n_), 0.0f);
  parallel::ParallelFor(
      0, n_, RowGrain(n_, nnz(), 1), [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) {
          double acc = 0.0;
          for (int64_t p = indptr_[i]; p < indptr_[i + 1]; ++p) {
            acc += double(values_[p]) * x[static_cast<size_t>(indices_[p])];
          }
          (*y)[static_cast<size_t>(i)] = static_cast<float>(acc);
        }
      });
}

std::vector<double> CsrMatrix::RowSums() const {
  std::vector<double> sums(static_cast<size_t>(n_), 0.0);
  parallel::ParallelFor(
      0, n_, RowGrain(n_, nnz(), 1), [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) {
          double acc = 0.0;
          for (int64_t p = indptr_[i]; p < indptr_[i + 1]; ++p) {
            acc += values_[p];
          }
          sums[static_cast<size_t>(i)] = acc;
        }
      });
  return sums;
}

}  // namespace sgnn::sparse
