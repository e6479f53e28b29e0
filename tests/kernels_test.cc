// Bit-exactness of the vector kernels (tensor/simd.h) — SpMM, the GEMM
// family, the fused SpMM epilogue, the elementwise and column kernels and
// the one-pass dots — against the plain scalar loops they replaced, which
// live only here as the reference. Every non-NaN output element must match
// the reference bit for bit (signed zeros and infinities included) and NaNs
// must appear in the same places; only NaN payloads may differ. Shapes
// straddle every column tile edge (8-lane vectors, 64-wide tiles) and
// GemmTransA's 256-row k blocks; operands carry +-0, +-Inf, NaN and (for the
// elementwise family) subnormals; each case runs at 1 and 4 threads.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/lazy.h"
#include "opgraph/graph.h"
#include "shard/plan.h"
#include "shard/spmm.h"
#include "sparse/csr.h"
#include "tensor/ops.h"
#include "tensor/parallel.h"
#include "tensor/rng.h"

namespace sgnn {
namespace {

const int64_t kWidths[] = {1, 7, 8, 9, 63, 64, 65, 130};
const int64_t kInner[] = {1, 2, 64, 300};
const int64_t kRows[] = {1, 7, 65};
const int kThreads[] = {1, 4};

/// Scoped SetNumThreads override, cleared on destruction.
class ThreadOverride {
 public:
  explicit ThreadOverride(int n) { parallel::SetNumThreads(n); }
  ~ThreadOverride() { parallel::SetNumThreads(0); }
};

/// Mostly N(0,1); with probability `special_rate` one of +-0, +-Inf, NaN.
float Draw(Rng* rng, double special_rate) {
  static const float kSpecial[] = {0.0f, -0.0f,
                                   std::numeric_limits<float>::infinity(),
                                   -std::numeric_limits<float>::infinity(),
                                   std::numeric_limits<float>::quiet_NaN()};
  if (rng->Bernoulli(special_rate)) return kSpecial[rng->UniformInt(5)];
  return static_cast<float>(rng->Normal());
}

Matrix RandomMatrix(int64_t rows, int64_t cols, Rng* rng,
                    double special_rate) {
  Matrix m(rows, cols);
  for (int64_t i = 0; i < m.size(); ++i) m.data()[i] = Draw(rng, special_rate);
  return m;
}

/// Same bits on every non-NaN element, NaN in the same places.
::testing::AssertionResult SameBits(const Matrix& want, const Matrix& got) {
  if (want.rows() != got.rows() || want.cols() != got.cols()) {
    return ::testing::AssertionFailure() << "shape mismatch";
  }
  for (int64_t i = 0; i < want.size(); ++i) {
    const float w = want.data()[i], g = got.data()[i];
    if (std::isnan(w) || std::isnan(g)) {
      if (std::isnan(w) != std::isnan(g)) {
        return ::testing::AssertionFailure()
               << "NaN mismatch at " << i << ": want " << w << " got " << g;
      }
      continue;
    }
    if (std::memcmp(&w, &g, sizeof(float)) != 0) {
      return ::testing::AssertionFailure()
             << "bits differ at " << i << ": want " << w << " got " << g;
    }
  }
  return ::testing::AssertionSuccess();
}

// ---- Scalar references: the loops the kernels must reproduce. ----

void RefSpmm(const sparse::CsrMatrix& a, const Matrix& x, Matrix* out) {
  const int64_t f = x.cols();
  for (int64_t i = 0; i < a.n(); ++i) {
    float* orow = out->row(i);
    for (int64_t j = 0; j < f; ++j) orow[j] = 0.0f;
    for (int64_t p = a.indptr()[i]; p < a.indptr()[i + 1]; ++p) {
      const float w = a.values()[p];
      const float* xrow = x.row(a.indices()[p]);
      for (int64_t j = 0; j < f; ++j) orow[j] += w * xrow[j];
    }
  }
}

void RefGemm(const Matrix& a, const Matrix& b, Matrix* out) {
  out->Fill(0.0f);
  for (int64_t i = 0; i < a.rows(); ++i) {
    for (int64_t kk = 0; kk < a.cols(); ++kk) {
      const float av = a.at(i, kk);
      if (av == 0.0f) continue;
      for (int64_t j = 0; j < b.cols(); ++j) {
        out->at(i, j) += av * b.at(kk, j);
      }
    }
  }
}

void RefGemmTransA(const Matrix& a, const Matrix& b, Matrix* out) {
  out->Fill(0.0f);
  for (int64_t kk = 0; kk < a.rows(); ++kk) {
    for (int64_t i = 0; i < a.cols(); ++i) {
      const float av = a.at(kk, i);
      if (av == 0.0f) continue;
      for (int64_t j = 0; j < b.cols(); ++j) {
        out->at(i, j) += av * b.at(kk, j);
      }
    }
  }
}

void RefGemmTransB(const Matrix& a, const Matrix& b, Matrix* out) {
  for (int64_t i = 0; i < a.rows(); ++i) {
    for (int64_t j = 0; j < b.rows(); ++j) {
      double acc = 0.0;
      for (int64_t kk = 0; kk < a.cols(); ++kk) {
        acc += double(a.at(i, kk)) * b.at(j, kk);
      }
      out->at(i, j) = static_cast<float>(acc);
    }
  }
}

/// n x n CSR with 0..2*avg nonzeros per row (empty rows and repeated
/// columns included), values drawn like the dense operands.
sparse::CsrMatrix RandomCsr(int64_t n, int64_t avg, Rng* rng,
                            double special_rate) {
  std::vector<int64_t> indptr{0};
  std::vector<int32_t> indices;
  std::vector<float> values;
  for (int64_t i = 0; i < n; ++i) {
    const uint64_t deg = rng->UniformInt(static_cast<uint64_t>(2 * avg + 1));
    for (uint64_t d = 0; d < deg; ++d) {
      indices.push_back(
          static_cast<int32_t>(rng->UniformInt(static_cast<uint64_t>(n))));
      values.push_back(Draw(rng, special_rate));
    }
    indptr.push_back(static_cast<int64_t>(indices.size()));
  }
  return sparse::CsrMatrix(n, std::move(indptr), std::move(indices),
                           std::move(values));
}

std::string Case(int64_t a, int64_t b, int64_t c, int threads, double rate) {
  return std::to_string(a) + "x" + std::to_string(b) + "x" +
         std::to_string(c) + " threads=" + std::to_string(threads) +
         " special=" + std::to_string(rate);
}

TEST(KernelIsa, ReportsTheDispatchedIsa) {
  const std::string isa = ops::KernelIsa();
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  EXPECT_EQ(isa, __builtin_cpu_supports("avx2") ? "avx2" : "generic");
#else
  EXPECT_EQ(isa, "generic");
#endif
}

TEST(KernelBits, SpmmMatchesScalarReference) {
  Rng rng(101);
  for (const double rate : {0.0, 0.1}) {
    for (const int64_t n : kInner) {
      for (const int64_t f : kWidths) {
        const sparse::CsrMatrix a = RandomCsr(n, 6, &rng, rate);
        const Matrix x = RandomMatrix(n, f, &rng, rate);
        Matrix want(n, f);
        RefSpmm(a, x, &want);
        for (const int threads : kThreads) {
          SCOPED_TRACE(Case(n, n, f, threads, rate));
          ThreadOverride t(threads);
          Matrix got(n, f);
          got.Fill(std::numeric_limits<float>::quiet_NaN());  // all overwritten
          a.SpMM(x, &got);
          EXPECT_TRUE(SameBits(want, got));
        }
      }
    }
  }
}

TEST(KernelBits, GemmFamilyMatchesScalarReference) {
  Rng rng(202);
  for (const double rate : {0.0, 0.1}) {
    for (const int64_t n : kRows) {
      for (const int64_t k : kInner) {
        for (const int64_t m : kWidths) {
          const Matrix a = RandomMatrix(n, k, &rng, rate);
          const Matrix b = RandomMatrix(k, m, &rng, rate);
          const Matrix at = RandomMatrix(k, n, &rng, rate);
          const Matrix bt = RandomMatrix(m, k, &rng, rate);
          Matrix want(n, m), want_ta(n, m), want_tb(n, m);
          RefGemm(a, b, &want);
          RefGemmTransA(at, b, &want_ta);
          RefGemmTransB(a, bt, &want_tb);
          for (const int threads : kThreads) {
            SCOPED_TRACE(Case(n, k, m, threads, rate));
            ThreadOverride t(threads);
            Matrix got(n, m);
            got.Fill(std::numeric_limits<float>::quiet_NaN());
            ops::Gemm(a, b, &got);
            EXPECT_TRUE(SameBits(want, got)) << "Gemm";
            got.Fill(std::numeric_limits<float>::quiet_NaN());
            ops::GemmTransA(at, b, &got);
            EXPECT_TRUE(SameBits(want_ta, got)) << "GemmTransA";
            got.Fill(std::numeric_limits<float>::quiet_NaN());
            ops::GemmTransB(a, bt, &got);
            EXPECT_TRUE(SameBits(want_tb, got)) << "GemmTransB";
          }
        }
      }
    }
  }
}

// A zero in a skips its whole b row, so 0 x Inf and 0 x NaN never reach the
// output: every element stays finite (and equal to the reference).
TEST(KernelBits, ZeroSkipKeepsInfAndNanRowsOut) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (const int64_t m : kWidths) {
    for (const int64_t k : {int64_t{2}, int64_t{300}}) {
      Rng rng(303);
      Matrix a = RandomMatrix(9, k, &rng, 0.0);
      Matrix b = RandomMatrix(k, m, &rng, 0.0);
      // Column 1 of a is zero (including -0); b row 1 is all Inf/NaN.
      for (int64_t i = 0; i < a.rows(); ++i) {
        a.at(i, 1) = (i % 2 == 0) ? 0.0f : -0.0f;
      }
      for (int64_t j = 0; j < m; ++j) b.at(1, j) = (j % 2 == 0) ? inf : nan;
      Matrix at(k, 9);
      for (int64_t i = 0; i < 9; ++i) {
        for (int64_t kk = 0; kk < k; ++kk) at.at(kk, i) = a.at(i, kk);
      }
      Matrix want(9, m);
      RefGemm(a, b, &want);
      for (const int threads : kThreads) {
        SCOPED_TRACE(Case(9, k, m, threads, 0.0));
        ThreadOverride t(threads);
        Matrix got(9, m), got_ta(9, m);
        ops::Gemm(a, b, &got);
        ops::GemmTransA(at, b, &got_ta);
        EXPECT_TRUE(ops::AllFinite(got));
        EXPECT_TRUE(ops::AllFinite(got_ta));
        EXPECT_TRUE(SameBits(want, got));
        EXPECT_TRUE(SameBits(want, got_ta));
      }
    }
  }
}

// Batched serving answers a request with a row of a multi-row GEMM; the
// same request served alone is a one-row GEMM. The row's bits must not
// depend on how many rows share the call (or on the thread count).
TEST(KernelBits, GemmRowBitsIndependentOfBatchSize) {
  Rng rng(404);
  for (const int64_t k : kInner) {
    for (const int64_t m : kWidths) {
      const Matrix batch = RandomMatrix(65, k, &rng, 0.05);
      const Matrix w = RandomMatrix(k, m, &rng, 0.05);
      const Matrix wt = RandomMatrix(m, k, &rng, 0.05);
      for (const int threads : kThreads) {
        SCOPED_TRACE(Case(65, k, m, threads, 0.05));
        ThreadOverride t(threads);
        Matrix all(65, m), all_tb(65, m);
        ops::Gemm(batch, w, &all);
        ops::GemmTransB(batch, wt, &all_tb);
        for (const int64_t r : {int64_t{0}, int64_t{31}, int64_t{64}}) {
          Matrix one(1, k), out(1, m), out_tb(1, m);
          std::memcpy(one.data(), batch.row(r),
                      static_cast<size_t>(k) * sizeof(float));
          ops::Gemm(one, w, &out);
          ops::GemmTransB(one, wt, &out_tb);
          EXPECT_EQ(std::memcmp(out.data(), all.row(r),
                                static_cast<size_t>(m) * sizeof(float)),
                    0)
              << "Gemm row " << r;
          EXPECT_EQ(std::memcmp(out_tb.data(), all_tb.row(r),
                                static_cast<size_t>(m) * sizeof(float)),
                    0)
              << "GemmTransB row " << r;
        }
      }
    }
  }
}

// ---- Elementwise, column and dot kernels. ----

// Lengths straddling the 8-float vector edge, plus one long enough to span
// several vectors and leave a tail.
const int64_t kLengths[] = {1, 7, 8, 9, 63, 64, 65, 4097};

/// Like Draw at a 20% special rate, with subnormals among the special
/// values. `finite` keeps to +-0 and subnormals: a reduction over a few
/// hundred elements with Inf and NaN among them is almost always NaN, which
/// would leave its summation order untested.
float DrawWide(Rng* rng, bool finite) {
  static const float kSpecial[] = {
      0.0f,
      -0.0f,
      std::numeric_limits<float>::denorm_min(),
      -37.0f * std::numeric_limits<float>::denorm_min(),
      0.5f * std::numeric_limits<float>::min(),
      std::numeric_limits<float>::infinity(),
      -std::numeric_limits<float>::infinity(),
      std::numeric_limits<float>::quiet_NaN()};
  if (rng->Bernoulli(0.2)) return kSpecial[rng->UniformInt(finite ? 5 : 8)];
  return static_cast<float>(rng->Normal());
}

Matrix WideMatrix(int64_t rows, int64_t cols, Rng* rng, bool finite = false) {
  Matrix m(rows, cols);
  for (int64_t i = 0; i < m.size(); ++i) m.data()[i] = DrawWide(rng, finite);
  return m;
}

/// The recurrence step the fused kernels apply; null in1/in2 skip a step.
struct Step {
  float ca, ci, cp;
  const Matrix* in1;
  const Matrix* in2;
  ops::AffineEpilogue Epilogue() const {
    ops::AffineEpilogue ep;
    ep.ca = ca;
    ep.ci = ci;
    ep.in1 = in1;
    ep.cp = cp;
    ep.in2 = in2;
    return ep;
  }
};

/// The unfused chain the epilogue must reproduce: Scale, Axpy, Axpy.
void RefEpilogue(const Step& s, Matrix* out) {
  float* o = out->data();
  for (int64_t i = 0; i < out->size(); ++i) o[i] *= s.ca;
  if (s.in1 != nullptr) {
    for (int64_t i = 0; i < out->size(); ++i) o[i] += s.ci * s.in1->data()[i];
  }
  if (s.in2 != nullptr) {
    for (int64_t i = 0; i < out->size(); ++i) o[i] += s.cp * s.in2->data()[i];
  }
}

/// Every elementwise kernel, as (name, vector kernel, scalar reference);
/// each updates `y` from operands `a`, `b` and the 1 x cols row `r`.
struct Elementwise {
  const char* name;
  void (*kernel)(const Matrix& a, const Matrix& b, const Matrix& r, Matrix* y);
  void (*reference)(const Matrix& a, const Matrix& b, const Matrix& r,
                    Matrix* y);
};

constexpr float kAlpha = -0.7f;

const Elementwise kElementwise[] = {
    {"Axpy",
     [](const Matrix& a, const Matrix&, const Matrix&, Matrix* y) {
       ops::Axpy(kAlpha, a, y);
     },
     [](const Matrix& a, const Matrix&, const Matrix&, Matrix* y) {
       for (int64_t i = 0; i < y->size(); ++i) {
         y->data()[i] += kAlpha * a.data()[i];
       }
     }},
    {"Scale",
     [](const Matrix&, const Matrix&, const Matrix&, Matrix* y) {
       ops::Scale(kAlpha, y);
     },
     [](const Matrix&, const Matrix&, const Matrix&, Matrix* y) {
       for (int64_t i = 0; i < y->size(); ++i) y->data()[i] *= kAlpha;
     }},
    {"Add",
     [](const Matrix& a, const Matrix& b, const Matrix&, Matrix* y) {
       ops::Add(a, b, y);
     },
     [](const Matrix& a, const Matrix& b, const Matrix&, Matrix* y) {
       for (int64_t i = 0; i < y->size(); ++i) {
         y->data()[i] = a.data()[i] + b.data()[i];
       }
     }},
    {"Sub",
     [](const Matrix& a, const Matrix& b, const Matrix&, Matrix* y) {
       ops::Sub(a, b, y);
     },
     [](const Matrix& a, const Matrix& b, const Matrix&, Matrix* y) {
       for (int64_t i = 0; i < y->size(); ++i) {
         y->data()[i] = a.data()[i] - b.data()[i];
       }
     }},
    {"MulInPlace",
     [](const Matrix& a, const Matrix&, const Matrix&, Matrix* y) {
       ops::MulInPlace(a, y);
     },
     [](const Matrix& a, const Matrix&, const Matrix&, Matrix* y) {
       for (int64_t i = 0; i < y->size(); ++i) y->data()[i] *= a.data()[i];
     }},
    {"ReluInPlace",
     [](const Matrix&, const Matrix&, const Matrix&, Matrix* y) {
       ops::ReluInPlace(y);
     },
     [](const Matrix&, const Matrix&, const Matrix&, Matrix* y) {
       float* d = y->data();
       for (int64_t i = 0; i < y->size(); ++i) d[i] = d[i] > 0.0f ? d[i] : 0.0f;
     }},
    {"ReluBackwardInPlace",
     [](const Matrix& a, const Matrix&, const Matrix&, Matrix* y) {
       ops::ReluBackwardInPlace(a, y);
     },
     [](const Matrix& a, const Matrix&, const Matrix&, Matrix* y) {
       for (int64_t i = 0; i < y->size(); ++i) {
         if (a.data()[i] <= 0.0f) y->data()[i] = 0.0f;
       }
     }},
    {"ApplyEpilogue",
     [](const Matrix& a, const Matrix& b, const Matrix&, Matrix* y) {
       ops::ApplyEpilogue(Step{kAlpha, 0.3f, -1.9f, &a, &b}.Epilogue(), y);
     },
     [](const Matrix& a, const Matrix& b, const Matrix&, Matrix* y) {
       RefEpilogue(Step{kAlpha, 0.3f, -1.9f, &a, &b}, y);
     }},
    {"AddRowBroadcast",
     [](const Matrix&, const Matrix&, const Matrix& r, Matrix* y) {
       ops::AddRowBroadcast(r, y);
     },
     [](const Matrix&, const Matrix&, const Matrix& r, Matrix* y) {
       for (int64_t i = 0; i < y->rows(); ++i) {
         for (int64_t j = 0; j < y->cols(); ++j) y->at(i, j) += r.at(0, j);
       }
     }},
    {"ColumnScale",
     [](const Matrix&, const Matrix&, const Matrix& r, Matrix* y) {
       ops::ColumnScale(r, y);
     },
     [](const Matrix&, const Matrix&, const Matrix& r, Matrix* y) {
       for (int64_t i = 0; i < y->rows(); ++i) {
         for (int64_t j = 0; j < y->cols(); ++j) y->at(i, j) *= r.at(0, j);
       }
     }},
    {"AxpyColumnwise",
     [](const Matrix& a, const Matrix&, const Matrix& r, Matrix* y) {
       ops::AxpyColumnwise(r, a, y);
     },
     [](const Matrix& a, const Matrix&, const Matrix& r, Matrix* y) {
       for (int64_t i = 0; i < y->rows(); ++i) {
         for (int64_t j = 0; j < y->cols(); ++j) {
           y->at(i, j) += r.at(0, j) * a.at(i, j);
         }
       }
     }},
};

TEST(KernelBits, ElementwiseMatchesScalarReference) {
  Rng rng(505);
  // 17 x 4097 spans several kElementGrain chunks at 4 threads.
  for (const int64_t rows : {int64_t{1}, int64_t{3}, int64_t{17}}) {
    for (const int64_t cols : kLengths) {
      const Matrix a = WideMatrix(rows, cols, &rng);
      const Matrix b = WideMatrix(rows, cols, &rng);
      const Matrix r = WideMatrix(1, cols, &rng);
      const Matrix y0 = WideMatrix(rows, cols, &rng);
      for (const Elementwise& k : kElementwise) {
        Matrix want = y0;
        k.reference(a, b, r, &want);
        for (const int threads : kThreads) {
          SCOPED_TRACE(std::string(k.name) + " " +
                       Case(rows, cols, 1, threads, 0.2));
          ThreadOverride t(threads);
          Matrix got = y0;
          k.kernel(a, b, r, &got);
          EXPECT_TRUE(SameBits(want, got));
        }
      }
    }
  }
}

// Serving answers a request with one row of a batch; the same request
// served alone is a one-row call. A flat kernel sees row r of a batch at
// element offset r * cols, so its vector/tail split falls elsewhere in the
// row than in the singleton call: the row's bits must not depend on it.
TEST(KernelBits, ElementwiseRowBitsIndependentOfBatchOffset) {
  Rng rng(606);
  for (const int64_t cols : kLengths) {
    const Matrix a = WideMatrix(9, cols, &rng);
    const Matrix b = WideMatrix(9, cols, &rng);
    const Matrix r = WideMatrix(1, cols, &rng);
    const Matrix y0 = WideMatrix(9, cols, &rng);
    for (const Elementwise& k : kElementwise) {
      for (const int threads : kThreads) {
        SCOPED_TRACE(std::string(k.name) + " " +
                     Case(9, cols, 1, threads, 0.2));
        ThreadOverride t(threads);
        Matrix batch = y0;
        k.kernel(a, b, r, &batch);
        for (int64_t row = 0; row < 9; ++row) {
          const auto alone = [&](const Matrix& m) {
            Matrix one(1, cols);
            std::memcpy(one.data(), m.row(row),
                        static_cast<size_t>(cols) * sizeof(float));
            return one;
          };
          Matrix got = alone(y0);
          k.kernel(alone(a), alone(b), r, &got);
          EXPECT_EQ(std::memcmp(got.data(), batch.row(row),
                                static_cast<size_t>(cols) * sizeof(float)),
                    0)
              << "row " << row;
        }
      }
    }
  }
}

/// Column sums, dots and norms of a rows x cols pair against the scalar
/// loops, at 1 and 4 threads.
void CheckColumnReductions(int64_t rows, int64_t cols, bool finite, Rng* rng) {
  const Matrix a = WideMatrix(rows, cols, rng, finite);
  const Matrix b = WideMatrix(rows, cols, rng, finite);
  Matrix want_sum(1, cols), want_dot(1, cols), want_norm(1, cols);
  for (int64_t j = 0; j < cols; ++j) {
    float sum = 0.0f;
    double dot = 0.0, sq = 0.0;
    for (int64_t i = 0; i < rows; ++i) {
      sum += a.at(i, j);
      dot += double(a.at(i, j)) * b.at(i, j);
      sq += double(a.at(i, j)) * a.at(i, j);
    }
    want_sum.at(0, j) = sum;
    want_dot.at(0, j) = static_cast<float>(dot);
    want_norm.at(0, j) = static_cast<float>(std::sqrt(sq));
  }
  for (const int threads : kThreads) {
    SCOPED_TRACE(Case(rows, cols, 1, threads, 0.2) +
                 (finite ? " finite" : ""));
    ThreadOverride t(threads);
    Matrix got(1, cols);
    ops::ColumnSum(a, &got);
    EXPECT_TRUE(SameBits(want_sum, got)) << "ColumnSum";
    ops::ColumnDot(a, b, &got);
    EXPECT_TRUE(SameBits(want_dot, got)) << "ColumnDot";
    ops::ColumnNorm(a, &got);
    EXPECT_TRUE(SameBits(want_norm, got)) << "ColumnNorm";
  }
}

TEST(KernelBits, ColumnReductionsMatchScalarReference) {
  Rng rng(707);
  for (const bool finite : {true, false}) {
    for (const int64_t rows : {int64_t{1}, int64_t{7}, int64_t{300}}) {
      for (const int64_t cols : kLengths) {
        CheckColumnReductions(rows, cols, finite, &rng);
      }
    }
  }
}

/// Dots over the first 0..terms.size() terms against one Dot per term, at
/// 1 and 4 threads.
void CheckDots(const Matrix& a, const std::vector<Matrix>& terms) {
  for (size_t count = 0; count <= terms.size(); ++count) {
    std::vector<const Matrix*> b;
    for (size_t t = 0; t < count; ++t) b.push_back(&terms[t]);
    for (const int threads : kThreads) {
      SCOPED_TRACE(Case(a.size(), static_cast<int64_t>(count), 1, threads,
                        0.2));
      ThreadOverride t(threads);
      std::vector<double> got{1.0, 2.0};  // overwritten
      ops::Dots(a, b, &got);
      ASSERT_EQ(got.size(), count);
      for (size_t k = 0; k < count; ++k) {
        const double want = ops::Dot(a, terms[k]);
        if (std::isnan(want) || std::isnan(got[k])) {
          EXPECT_EQ(std::isnan(want), std::isnan(got[k])) << "term " << k;
        } else {
          EXPECT_EQ(std::memcmp(&want, &got[k], sizeof(double)), 0)
              << "term " << k << ": want " << want << " got " << got[k];
        }
      }
    }
  }
}

TEST(KernelBits, DotsMatchPerTermDot) {
  Rng rng(808);
  // 9000 spans two of Dots' element blocks and ends mid-block; 0..17 terms
  // cover every group size and more than two groups.
  for (const bool finite : {true, false}) {
    for (const int64_t size : {int64_t{1}, int64_t{7}, int64_t{4097},
                               int64_t{9000}}) {
      const Matrix a = WideMatrix(1, size, &rng, finite);
      std::vector<Matrix> terms;
      for (int t = 0; t < 17; ++t) {
        terms.push_back(WideMatrix(1, size, &rng, finite));
      }
      CheckDots(a, terms);
    }
  }
}

/// An operator that only implements Apply, so ApplyAffine runs the
/// SpmmOperator default (Apply, then one ApplyEpilogue pass).
class PlainSpmm : public opgraph::SpmmOperator {
 public:
  explicit PlainSpmm(const sparse::CsrMatrix* a) : a_(a) {}
  int64_t n() const override { return a_->n(); }
  void Apply(const Matrix& x, Matrix* out) const override { a_->SpMM(x, out); }

 private:
  const sparse::CsrMatrix* a_;
};

// The fused op-graph node calls ApplyAffine; whichever operator runs it,
// the result must be the unfused SpMM -> Scale -> Axpy -> Axpy chain.
TEST(KernelBits, ApplyAffineMatchesUnfusedChain) {
  Rng rng(909);
  for (const double rate : {0.0, 0.1}) {
    for (const int64_t n : {int64_t{2}, int64_t{64}, int64_t{300}}) {
      for (const int64_t f : kWidths) {
        const sparse::CsrMatrix a = RandomCsr(n, 6, &rng, rate);
        const Matrix x = RandomMatrix(n, f, &rng, rate);
        const Matrix p1 = WideMatrix(n, f, &rng);
        const Matrix p2 = WideMatrix(n, f, &rng);
        const filters::CsrSpmmOperator csr(&a);
        const PlainSpmm plain(&a);
        std::vector<shard::ShardPlan> plans;
        for (const int k : {1, 2, 4}) {
          plans.push_back(shard::BuildShardPlan(a, {k, 7}));
        }
        std::vector<std::pair<std::string, const opgraph::SpmmOperator*>>
            operators;
        operators.emplace_back("csr", &csr);
        operators.emplace_back("default", &plain);
        std::vector<std::unique_ptr<shard::ShardedSpmmOperator>> sharded;
        for (const shard::ShardPlan& plan : plans) {
          sharded.push_back(
              std::make_unique<shard::ShardedSpmmOperator>(&plan));
          operators.emplace_back("shard K=" + std::to_string(plan.num_shards),
                            sharded.back().get());
        }
        const Step steps[] = {{1.0f, 0.0f, 0.0f, nullptr, nullptr},
                              {2.0f, -1.0f, 0.0f, &p1, nullptr},
                              {-0.3f, 1.7f, -0.45f, &p1, &p2}};
        for (const Step& s : steps) {
          Matrix want(n, f);
          a.SpMM(x, &want);
          RefEpilogue(s, &want);
          for (const auto& [name, op] : operators) {
            for (const int threads : kThreads) {
              SCOPED_TRACE(name + " " + Case(n, n, f, threads, rate));
              ThreadOverride t(threads);
              Matrix got(n, f);
              got.Fill(std::numeric_limits<float>::quiet_NaN());
              op->ApplyAffine(x, s.Epilogue(), &got);
              EXPECT_TRUE(SameBits(want, got));
            }
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace sgnn
