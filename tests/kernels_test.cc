// Bit-exactness of the register-tiled SpMM and GEMM kernels (tensor/simd.h)
// against the plain scalar loops they replaced, which live only here as the
// reference. Every non-NaN output element must match the reference bit for
// bit (signed zeros and infinities included) and NaNs must appear in the
// same places; only NaN payloads may differ. Shapes straddle every column
// tile edge (8-lane vectors, 64-wide tiles) and GemmTransA's 256-row k
// blocks; operands carry +-0, +-Inf and NaN; each case runs at 1 and 4
// threads.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

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

}  // namespace
}  // namespace sgnn
