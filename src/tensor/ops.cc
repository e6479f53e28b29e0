#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "tensor/parallel.h"
#include "tensor/simd.h"

namespace sgnn::ops {

namespace {

/// Elements per chunk for O(1)-per-element kernels (axpy, add, relu, ...):
/// large enough that dispatch overhead is negligible, small enough that a
/// typical n x F representation still splits across threads.
constexpr int64_t kElementGrain = int64_t{1} << 15;

/// Rows per chunk for kernels doing `row_flops` work per row — the shared
/// ~64k-flops-per-chunk target (docs/PERFORMANCE.md).
int64_t RowGrain(int64_t row_flops) {
  return parallel::GrainForFlops(row_flops, int64_t{1} << 16);
}

/// Upper bound on GemmTransA's chunk count (see there).
constexpr int64_t kTransAChunks = 8;

/// GemmTransA's k-block: 256 rows of b (64 KB at m = 64) stay cache-resident
/// while every output row of the chunk accumulates over them.
constexpr int64_t kTransABlock = 256;

// Kernel bodies, instantiated once per ISA by simd::Dispatch.

/// out rows [lo, hi) of a (n x k) * b (k x m), skipping zero a entries.
struct GemmRows {
  static SGNN_SIMD_INLINE void Run(const float* a, const float* b, int64_t k,
                                   int64_t m, int64_t lo, int64_t hi,
                                   float* out) {
    for (int64_t i = lo; i < hi; ++i) {
      const float* arow = a + i * k;
      simd::AccumulateRow<float, /*kSkipZero=*/true, /*kAccumulate=*/false>(
          k,
          [&](int64_t kk) { return simd::Term<float>{arow[kk], b + kk * m}; },
          m, out + i * m);
    }
  }
};

/// out rows [lo, hi) += rows of a^T b for a (k x n), b (k x m), k-blocked:
/// each block accumulates into the stored tile, which round-trips exactly.
struct GemmTransARows {
  static SGNN_SIMD_INLINE void Run(const float* a, const float* b, int64_t k,
                                   int64_t n, int64_t m, int64_t lo,
                                   int64_t hi, float* out) {
    for (int64_t k0 = 0; k0 < k; k0 += kTransABlock) {
      const int64_t terms = std::min(kTransABlock, k - k0);
      for (int64_t i = lo; i < hi; ++i) {
        const float* acol = a + k0 * n + i;
        const float* bblock = b + k0 * m;
        simd::AccumulateRow<float, /*kSkipZero=*/true, /*kAccumulate=*/true>(
            terms,
            [&](int64_t t) {
              return simd::Term<float>{acol[t * n], bblock + t * m};
            },
            m, out + i * m);
      }
    }
  }
};

/// out rows [lo, hi) of a (n x k) * panel (k x m, double), summed in
/// double and rounded once.
struct GemmTransBRows {
  static SGNN_SIMD_INLINE void Run(const float* a, const double* panel,
                                   int64_t k, int64_t m, int64_t lo,
                                   int64_t hi, float* out) {
    for (int64_t i = lo; i < hi; ++i) {
      const float* arow = a + i * k;
      simd::AccumulateRow<double, /*kSkipZero=*/false, /*kAccumulate=*/false>(
          k,
          [&](int64_t kk) {
            return simd::Term<double>{arow[kk], panel + kk * m};
          },
          m, out + i * m);
    }
  }
};

// Elementwise steps for simd::ForEach. Each writes its scalar loop's
// expression once over V, an 8-float vector or a single float.

/// out = a + b.
struct AddStep {
  const float* a;
  const float* b;
  float* out;
  template <typename V>
  SGNN_SIMD_INLINE void Step(int64_t i) const {
    V av, bv;
    simd::LoadLanes(a + i, &av);
    simd::LoadLanes(b + i, &bv);
    simd::StoreLanes(av + bv, out + i);
  }
};

/// out = a - b.
struct SubStep {
  const float* a;
  const float* b;
  float* out;
  template <typename V>
  SGNN_SIMD_INLINE void Step(int64_t i) const {
    V av, bv;
    simd::LoadLanes(a + i, &av);
    simd::LoadLanes(b + i, &bv);
    simd::StoreLanes(av - bv, out + i);
  }
};

/// out = a * b.
struct MulStep {
  const float* a;
  const float* b;
  float* out;
  template <typename V>
  SGNN_SIMD_INLINE void Step(int64_t i) const {
    V av, bv;
    simd::LoadLanes(a + i, &av);
    simd::LoadLanes(b + i, &bv);
    simd::StoreLanes(av * bv, out + i);
  }
};

/// y += a * x, with `a` a per-element row (AxpyColumnwise).
struct MulAddStep {
  const float* a;
  const float* x;
  float* y;
  template <typename V>
  SGNN_SIMD_INLINE void Step(int64_t i) const {
    V av, xv, yv;
    simd::LoadLanes(a + i, &av);
    simd::LoadLanes(x + i, &xv);
    simd::LoadLanes(y + i, &yv);
    yv += av * xv;
    simd::StoreLanes(yv, y + i);
  }
};

/// y += alpha * x.
struct AxpyStep {
  float alpha;
  const float* x;
  float* y;
  template <typename V>
  SGNN_SIMD_INLINE void Step(int64_t i) const {
    V xv, yv;
    simd::LoadLanes(x + i, &xv);
    simd::LoadLanes(y + i, &yv);
    yv += alpha * xv;
    simd::StoreLanes(yv, y + i);
  }
};

/// x *= alpha.
struct ScaleStep {
  float alpha;
  float* x;
  template <typename V>
  SGNN_SIMD_INLINE void Step(int64_t i) const {
    V v;
    simd::LoadLanes(x + i, &v);
    v *= alpha;
    simd::StoreLanes(v, x + i);
  }
};

/// out = epilogue(out), the recurrence step over flat element indices.
struct EpilogueStep {
  simd::AffineRow epilogue;
  float* out;
  template <typename V>
  SGNN_SIMD_INLINE void Step(int64_t i) const {
    V v;
    simd::LoadLanes(out + i, &v);
    epilogue(&v, i);
    simd::StoreLanes(v, out + i);
  }
};

/// x = x > 0 ? x : 0 (NaN and -0 become +0).
struct ReluStep {
  float* x;
  template <typename V>
  SGNN_SIMD_INLINE void Step(int64_t i) const {
    const V zero = {};
    V v;
    simd::LoadLanes(x + i, &v);
    simd::StoreLanes(v > zero ? v : zero, x + i);
  }
};

/// grad = preact <= 0 ? 0 : grad (a NaN pre-activation keeps its gradient).
struct ReluBackwardStep {
  const float* preact;
  float* grad;
  template <typename V>
  SGNN_SIMD_INLINE void Step(int64_t i) const {
    const V zero = {};
    V p, g;
    simd::LoadLanes(preact + i, &p);
    simd::LoadLanes(grad + i, &g);
    simd::StoreLanes(p <= zero ? zero : g, grad + i);
  }
};

/// Rows [lo, hi) of a row-broadcast kernel: `row_step(i)` is the step over
/// the columns of row i.
struct RowsBody {
  template <typename RowStep>
  static SGNN_SIMD_INLINE void Run(RowStep row_step, int64_t cols, int64_t lo,
                                   int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) simd::ForEach(row_step(i), 0, cols);
  }
};

/// Runs `step` over elements [0, size), chunked like every O(1)-per-element
/// kernel; an element's bits do not depend on the chunking (simd::ForEach).
template <typename StepT>
void ForEachElement(int64_t size, const StepT& step) {
  parallel::ParallelFor(0, size, kElementGrain, [&](int64_t lo, int64_t hi) {
    simd::Dispatch<simd::ForEachBody>(step, lo, hi);
  });
}

/// Runs `row_step(i)` over the `cols` columns of every row i in [0, rows).
template <typename RowStep>
void ForEachRow(int64_t rows, int64_t cols, const RowStep& row_step) {
  parallel::ParallelFor(0, rows, RowGrain(cols), [&](int64_t lo, int64_t hi) {
    simd::Dispatch<RowsBody>(row_step, cols, lo, hi);
  });
}

/// Column-reduction term double(a[i][j]) * b[i][j] (exact in double), for
/// ColumnDot and ColumnNorm.
struct ProductElem {
  const float* a;
  const float* b;
  int64_t cols;
  template <typename V>
  SGNN_SIMD_INLINE void operator()(int64_t i, int64_t j, V* v) const {
    V av, bv;
    simd::LoadLanes(a + i * cols + j, &av);
    simd::LoadLanes(b + i * cols + j, &bv);
    *v = av * bv;
  }
};

/// Column-reduction term x[i][j], for ColumnSum.
struct ValueElem {
  const float* x;
  int64_t cols;
  template <typename V>
  SGNN_SIMD_INLINE void operator()(int64_t i, int64_t j, V* v) const {
    simd::LoadLanes(x + i * cols + j, v);
  }
};

/// acc[t] += Dot-order partial sums of a[lo, hi) against b[t][lo, hi) for
/// kTerms terms: one independent double chain per term, so the chains
/// overlap in the pipeline while each keeps Dot's ascending order.
template <int kTerms>
void DotTerms(const float* a, const float* const* b, int64_t lo, int64_t hi,
              double* acc) {
  double s[kTerms];
  for (int t = 0; t < kTerms; ++t) s[t] = acc[t];
  for (int64_t i = lo; i < hi; ++i) {
    const double ai = a[i];
#pragma GCC unroll 8
    for (int t = 0; t < kTerms; ++t) s[t] += ai * b[t][i];
  }
  for (int t = 0; t < kTerms; ++t) acc[t] = s[t];
}

/// Terms per DotTerms pass: eight double chains hide the add latency.
constexpr int kDotTerms = 8;

/// Elements of `a` per Dots block: 16 KB, so the block stays in L1 while
/// every group of terms streams past it.
constexpr int64_t kDotBlock = 4096;

}  // namespace

const char* KernelIsa() { return simd::HasAvx2() ? "avx2" : "generic"; }

void Gemm(const Matrix& a, const Matrix& b, Matrix* out) {
  SGNN_CHECK(a.cols() == b.rows(), "Gemm: inner dimensions mismatch");
  SGNN_CHECK(out->rows() == a.rows() && out->cols() == b.cols(),
             "Gemm: output shape mismatch");
  const int64_t n = a.rows(), k = a.cols(), m = b.cols();
  // Row-partitioned over `out`; each row accumulates kk in ascending order
  // (simd.h), so the parallel result is bit-identical to the serial one.
  parallel::ParallelFor(0, n, RowGrain(k * m), [&](int64_t lo, int64_t hi) {
    simd::Dispatch<GemmRows>(a.data(), b.data(), k, m, lo, hi, out->data());
  });
}

void GemmTransA(const Matrix& a, const Matrix& b, Matrix* out) {
  SGNN_CHECK(a.rows() == b.rows(), "GemmTransA: inner dimensions mismatch");
  SGNN_CHECK(out->rows() == a.cols() && out->cols() == b.cols(),
             "GemmTransA: output shape mismatch");
  const int64_t k = a.rows(), n = a.cols(), m = b.cols();
  out->Fill(0.0f);
  // Each chunk owns a row range of `out` (a kk-partition would race on out
  // rows) and streams both operands once. Per output element the kk
  // accumulation is still ascending, so any thread count gives the same
  // bits. At most ~kTransAChunks chunks: every chunk re-reads the k-row
  // operands, so finer chunks only multiply the traffic.
  const int64_t grain = std::max((n + kTransAChunks - 1) / kTransAChunks,
                                 RowGrain(k * m));
  parallel::ParallelFor(0, n, grain, [&](int64_t lo, int64_t hi) {
    simd::Dispatch<GemmTransARows>(a.data(), b.data(), k, n, m, lo, hi,
                                   out->data());
  });
}

void GemmTransB(const Matrix& a, const Matrix& b, Matrix* out) {
  SGNN_CHECK(a.cols() == b.cols(), "GemmTransB: inner dimensions mismatch");
  SGNN_CHECK(out->rows() == a.rows() && out->cols() == b.rows(),
             "GemmTransB: output shape mismatch");
  const int64_t n = a.rows(), k = a.cols(), m = b.rows();
  // b^T as a k x m panel of doubles, so a row of `out` is a column-vector
  // accumulation like Gemm's. Widening float to double is exact, so each
  // element keeps its ascending-kk double sum. Host scratch, not a
  // DeviceTracker allocation: it is freed before the call returns.
  std::vector<double> panel(static_cast<size_t>(k * m));
  for (int64_t j = 0; j < m; ++j) {
    const float* brow = b.row(j);
    for (int64_t kk = 0; kk < k; ++kk) {
      panel[static_cast<size_t>(kk * m + j)] = brow[kk];
    }
  }
  parallel::ParallelFor(0, n, RowGrain(k * m), [&](int64_t lo, int64_t hi) {
    simd::Dispatch<GemmTransBRows>(a.data(), panel.data(), k, m, lo, hi,
                                   out->data());
  });
}

void Axpy(float alpha, const Matrix& x, Matrix* y) {
  SGNN_CHECK(x.size() == y->size(), "Axpy: size mismatch");
  ForEachElement(x.size(), AxpyStep{alpha, x.data(), y->data()});
}

void Scale(float alpha, Matrix* x) {
  ForEachElement(x->size(), ScaleStep{alpha, x->data()});
}

void ApplyEpilogue(const AffineEpilogue& ep, Matrix* out) {
  SGNN_CHECK(ep.in1 == nullptr || ep.in1->size() == out->size(),
             "ApplyEpilogue: in1 size mismatch");
  SGNN_CHECK(ep.in2 == nullptr || ep.in2->size() == out->size(),
             "ApplyEpilogue: in2 size mismatch");
  const simd::AffineRow row{ep.ca, ep.ci, ep.cp,
                            ep.in1 != nullptr ? ep.in1->data() : nullptr,
                            ep.in2 != nullptr ? ep.in2->data() : nullptr};
  ForEachElement(out->size(), EpilogueStep{row, out->data()});
}

void Copy(const Matrix& x, Matrix* y) {
  SGNN_CHECK(x.size() == y->size(), "Copy: size mismatch");
  std::memcpy(y->data(), x.data(), x.bytes());
}

void Add(const Matrix& a, const Matrix& b, Matrix* out) {
  SGNN_CHECK(a.size() == b.size() && a.size() == out->size(),
             "Add: size mismatch");
  ForEachElement(a.size(), AddStep{a.data(), b.data(), out->data()});
}

void Sub(const Matrix& a, const Matrix& b, Matrix* out) {
  SGNN_CHECK(a.size() == b.size() && a.size() == out->size(),
             "Sub: size mismatch");
  ForEachElement(a.size(), SubStep{a.data(), b.data(), out->data()});
}

void MulInPlace(const Matrix& x, Matrix* y) {
  SGNN_CHECK(x.size() == y->size(), "MulInPlace: size mismatch");
  ForEachElement(x.size(), MulStep{y->data(), x.data(), y->data()});
}

// Dot, Dots and the Column* reductions below stay serial on purpose: a
// chunked reduction changes the floating-point summation order, and these
// feed filter-parameter gradients and the OptBasis orthogonalization, where
// the serial bits are the documented reference. Dot is one latency-bound
// double chain; Dots runs up to kDotTerms such chains side by side; the
// Column* reductions spread their columns across vector lanes, each column
// still summing its rows in ascending order.
double Dot(const Matrix& a, const Matrix& b) {
  SGNN_CHECK(a.size() == b.size(), "Dot: size mismatch");
  const float* ad = a.data();
  const float* bd = b.data();
  double acc = 0.0;
  for (int64_t i = 0; i < a.size(); ++i) acc += double(ad[i]) * bd[i];
  return acc;
}

void Dots(const Matrix& a, const std::vector<const Matrix*>& b,
          std::vector<double>* out) {
  std::vector<const float*> rows(b.size());
  for (size_t t = 0; t < b.size(); ++t) {
    SGNN_CHECK(b[t]->size() == a.size(), "Dots: size mismatch");
    rows[t] = b[t]->data();
  }
  using Pass = void (*)(const float*, const float* const*, int64_t, int64_t,
                        double*);
  static constexpr Pass kPasses[kDotTerms + 1] = {
      nullptr,     DotTerms<1>, DotTerms<2>, DotTerms<3>, DotTerms<4>,
      DotTerms<5>, DotTerms<6>, DotTerms<7>, DotTerms<8>};
  out->assign(b.size(), 0.0);
  const int64_t terms = static_cast<int64_t>(b.size());
  for (int64_t lo = 0; lo < a.size(); lo += kDotBlock) {
    const int64_t hi = std::min(a.size(), lo + kDotBlock);
    for (int64_t t = 0; t < terms; t += kDotTerms) {
      const int64_t group = std::min<int64_t>(kDotTerms, terms - t);
      kPasses[group](a.data(), rows.data() + t, lo, hi, out->data() + t);
    }
  }
}

void AddRowBroadcast(const Matrix& bias, Matrix* x) {
  SGNN_CHECK(bias.rows() == 1 && bias.cols() == x->cols(),
             "AddRowBroadcast: bias shape mismatch");
  const float* bd = bias.data();
  float* xd = x->data();
  const int64_t cols = x->cols();
  ForEachRow(x->rows(), cols, [=](int64_t i) {
    return AddStep{xd + i * cols, bd, xd + i * cols};
  });
}

void ColumnSum(const Matrix& x, Matrix* out) {
  SGNN_CHECK(out->rows() == 1 && out->cols() == x.cols(),
             "ColumnSum: output shape mismatch");
  simd::Dispatch<simd::ReduceColumnsBody>(ValueElem{x.data(), x.cols()},
                                          x.rows(), x.cols(), out->data());
}

void ColumnNorm(const Matrix& x, Matrix* out) {
  SGNN_CHECK(out->rows() == 1 && out->cols() == x.cols(),
             "ColumnNorm: output shape mismatch");
  std::vector<double> acc(static_cast<size_t>(x.cols()));
  simd::Dispatch<simd::ReduceColumnsBody>(
      ProductElem{x.data(), x.data(), x.cols()}, x.rows(), x.cols(),
      acc.data());
  for (int64_t j = 0; j < x.cols(); ++j)
    out->at(0, j) = static_cast<float>(std::sqrt(acc[static_cast<size_t>(j)]));
}

void ColumnDot(const Matrix& a, const Matrix& b, Matrix* out) {
  SGNN_CHECK(a.rows() == b.rows() && a.cols() == b.cols(),
             "ColumnDot: input shape mismatch");
  SGNN_CHECK(out->rows() == 1 && out->cols() == a.cols(),
             "ColumnDot: output shape mismatch");
  std::vector<double> acc(static_cast<size_t>(a.cols()));
  simd::Dispatch<simd::ReduceColumnsBody>(
      ProductElem{a.data(), b.data(), a.cols()}, a.rows(), a.cols(),
      acc.data());
  for (int64_t j = 0; j < a.cols(); ++j)
    out->at(0, j) = static_cast<float>(acc[static_cast<size_t>(j)]);
}

void ColumnScale(const Matrix& alpha, Matrix* x) {
  SGNN_CHECK(alpha.rows() == 1 && alpha.cols() == x->cols(),
             "ColumnScale: alpha shape mismatch");
  const float* ad = alpha.data();
  float* xd = x->data();
  const int64_t cols = x->cols();
  ForEachRow(x->rows(), cols, [=](int64_t i) {
    return MulStep{xd + i * cols, ad, xd + i * cols};
  });
}

void AxpyColumnwise(const Matrix& alpha, const Matrix& x, Matrix* y) {
  SGNN_CHECK(alpha.rows() == 1 && alpha.cols() == x.cols(),
             "AxpyColumnwise: alpha shape mismatch");
  SGNN_CHECK(x.rows() == y->rows() && x.cols() == y->cols(),
             "AxpyColumnwise: shape mismatch");
  const float* ad = alpha.data();
  const float* xd = x.data();
  float* yd = y->data();
  const int64_t cols = x.cols();
  ForEachRow(x.rows(), cols, [=](int64_t i) {
    return MulAddStep{ad, xd + i * cols, yd + i * cols};
  });
}

void RowL2Normalize(Matrix* x) {
  parallel::ParallelFor(
      0, x->rows(), RowGrain(2 * x->cols()), [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) {
          float* xrow = x->row(i);
          double acc = 0.0;
          for (int64_t j = 0; j < x->cols(); ++j) {
            acc += double(xrow[j]) * xrow[j];
          }
          if (acc <= 0.0) continue;
          const float inv = static_cast<float>(1.0 / std::sqrt(acc));
          for (int64_t j = 0; j < x->cols(); ++j) xrow[j] *= inv;
        }
      });
}

void ReluInPlace(Matrix* x) {
  ForEachElement(x->size(), ReluStep{x->data()});
}

void ReluBackwardInPlace(const Matrix& preact, Matrix* grad) {
  SGNN_CHECK(preact.size() == grad->size(),
             "ReluBackwardInPlace: size mismatch");
  ForEachElement(grad->size(), ReluBackwardStep{preact.data(), grad->data()});
}

bool AllFinite(const Matrix& x) {
  const float* d = x.data();
  for (int64_t i = 0; i < x.size(); ++i) {
    if (!std::isfinite(d[i])) return false;
  }
  return true;
}

}  // namespace sgnn::ops
