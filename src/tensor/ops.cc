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
  const float* xd = x.data();
  float* yd = y->data();
  parallel::ParallelFor(0, x.size(), kElementGrain,
                        [&](int64_t lo, int64_t hi) {
                          for (int64_t i = lo; i < hi; ++i) {
                            yd[i] += alpha * xd[i];
                          }
                        });
}

void Scale(float alpha, Matrix* x) {
  float* xd = x->data();
  parallel::ParallelFor(0, x->size(), kElementGrain,
                        [&](int64_t lo, int64_t hi) {
                          for (int64_t i = lo; i < hi; ++i) xd[i] *= alpha;
                        });
}

void Copy(const Matrix& x, Matrix* y) {
  SGNN_CHECK(x.size() == y->size(), "Copy: size mismatch");
  std::memcpy(y->data(), x.data(), x.bytes());
}

void Add(const Matrix& a, const Matrix& b, Matrix* out) {
  SGNN_CHECK(a.size() == b.size() && a.size() == out->size(),
             "Add: size mismatch");
  const float* ad = a.data();
  const float* bd = b.data();
  float* od = out->data();
  parallel::ParallelFor(0, a.size(), kElementGrain,
                        [&](int64_t lo, int64_t hi) {
                          for (int64_t i = lo; i < hi; ++i) {
                            od[i] = ad[i] + bd[i];
                          }
                        });
}

void Sub(const Matrix& a, const Matrix& b, Matrix* out) {
  SGNN_CHECK(a.size() == b.size() && a.size() == out->size(),
             "Sub: size mismatch");
  const float* ad = a.data();
  const float* bd = b.data();
  float* od = out->data();
  parallel::ParallelFor(0, a.size(), kElementGrain,
                        [&](int64_t lo, int64_t hi) {
                          for (int64_t i = lo; i < hi; ++i) {
                            od[i] = ad[i] - bd[i];
                          }
                        });
}

void MulInPlace(const Matrix& x, Matrix* y) {
  SGNN_CHECK(x.size() == y->size(), "MulInPlace: size mismatch");
  const float* xd = x.data();
  float* yd = y->data();
  parallel::ParallelFor(0, x.size(), kElementGrain,
                        [&](int64_t lo, int64_t hi) {
                          for (int64_t i = lo; i < hi; ++i) yd[i] *= xd[i];
                        });
}

// Dot and the Column* reductions below stay serial on purpose: a chunked
// reduction changes the floating-point summation order, and these feed
// filter-parameter gradients and the OptBasis orthogonalization, where the
// serial bits are the documented reference. They are O(nF) against the
// kernels' O(nF^2)/O(mF), so the ceiling they put on scaling is small
// (measured in docs/PERFORMANCE.md).
double Dot(const Matrix& a, const Matrix& b) {
  SGNN_CHECK(a.size() == b.size(), "Dot: size mismatch");
  const float* ad = a.data();
  const float* bd = b.data();
  double acc = 0.0;
  for (int64_t i = 0; i < a.size(); ++i) acc += double(ad[i]) * bd[i];
  return acc;
}

void AddRowBroadcast(const Matrix& bias, Matrix* x) {
  SGNN_CHECK(bias.rows() == 1 && bias.cols() == x->cols(),
             "AddRowBroadcast: bias shape mismatch");
  const float* bd = bias.data();
  parallel::ParallelFor(
      0, x->rows(), RowGrain(x->cols()), [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) {
          float* xrow = x->row(i);
          for (int64_t j = 0; j < x->cols(); ++j) xrow[j] += bd[j];
        }
      });
}

void ColumnSum(const Matrix& x, Matrix* out) {
  SGNN_CHECK(out->rows() == 1 && out->cols() == x.cols(),
             "ColumnSum: output shape mismatch");
  out->Fill(0.0f);
  float* od = out->data();
  for (int64_t i = 0; i < x.rows(); ++i) {
    const float* xrow = x.row(i);
    for (int64_t j = 0; j < x.cols(); ++j) od[j] += xrow[j];
  }
}

void ColumnNorm(const Matrix& x, Matrix* out) {
  SGNN_CHECK(out->rows() == 1 && out->cols() == x.cols(),
             "ColumnNorm: output shape mismatch");
  std::vector<double> acc(static_cast<size_t>(x.cols()), 0.0);
  for (int64_t i = 0; i < x.rows(); ++i) {
    const float* xrow = x.row(i);
    for (int64_t j = 0; j < x.cols(); ++j)
      acc[static_cast<size_t>(j)] += double(xrow[j]) * xrow[j];
  }
  for (int64_t j = 0; j < x.cols(); ++j)
    out->at(0, j) = static_cast<float>(std::sqrt(acc[static_cast<size_t>(j)]));
}

void ColumnDot(const Matrix& a, const Matrix& b, Matrix* out) {
  SGNN_CHECK(a.rows() == b.rows() && a.cols() == b.cols(),
             "ColumnDot: input shape mismatch");
  SGNN_CHECK(out->rows() == 1 && out->cols() == a.cols(),
             "ColumnDot: output shape mismatch");
  std::vector<double> acc(static_cast<size_t>(a.cols()), 0.0);
  for (int64_t i = 0; i < a.rows(); ++i) {
    const float* arow = a.row(i);
    const float* brow = b.row(i);
    for (int64_t j = 0; j < a.cols(); ++j)
      acc[static_cast<size_t>(j)] += double(arow[j]) * brow[j];
  }
  for (int64_t j = 0; j < a.cols(); ++j)
    out->at(0, j) = static_cast<float>(acc[static_cast<size_t>(j)]);
}

void ColumnScale(const Matrix& alpha, Matrix* x) {
  SGNN_CHECK(alpha.rows() == 1 && alpha.cols() == x->cols(),
             "ColumnScale: alpha shape mismatch");
  const float* ad = alpha.data();
  parallel::ParallelFor(
      0, x->rows(), RowGrain(x->cols()), [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) {
          float* xrow = x->row(i);
          for (int64_t j = 0; j < x->cols(); ++j) xrow[j] *= ad[j];
        }
      });
}

void AxpyColumnwise(const Matrix& alpha, const Matrix& x, Matrix* y) {
  SGNN_CHECK(alpha.rows() == 1 && alpha.cols() == x.cols(),
             "AxpyColumnwise: alpha shape mismatch");
  SGNN_CHECK(x.rows() == y->rows() && x.cols() == y->cols(),
             "AxpyColumnwise: shape mismatch");
  const float* ad = alpha.data();
  parallel::ParallelFor(
      0, x.rows(), RowGrain(x.cols()), [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) {
          const float* xrow = x.row(i);
          float* yrow = y->row(i);
          for (int64_t j = 0; j < x.cols(); ++j) yrow[j] += ad[j] * xrow[j];
        }
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
  float* xd = x->data();
  parallel::ParallelFor(0, x->size(), kElementGrain,
                        [&](int64_t lo, int64_t hi) {
                          for (int64_t i = lo; i < hi; ++i) {
                            xd[i] = xd[i] > 0.0f ? xd[i] : 0.0f;
                          }
                        });
}

void ReluBackwardInPlace(const Matrix& preact, Matrix* grad) {
  SGNN_CHECK(preact.size() == grad->size(),
             "ReluBackwardInPlace: size mismatch");
  const float* pd = preact.data();
  float* gd = grad->data();
  parallel::ParallelFor(0, grad->size(), kElementGrain,
                        [&](int64_t lo, int64_t hi) {
                          for (int64_t i = lo; i < hi; ++i) {
                            if (pd[i] <= 0.0f) gd[i] = 0.0f;
                          }
                        });
}

bool AllFinite(const Matrix& x) {
  const float* d = x.data();
  for (int64_t i = 0; i < x.size(); ++i) {
    if (!std::isfinite(d[i])) return false;
  }
  return true;
}

}  // namespace sgnn::ops
