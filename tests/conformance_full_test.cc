// Long-budget conformance suite (label: conformance_full, excluded from
// `ctest -L tier1`).
//
// Runs the full property-based fuzz sweep over all 27 filters and the
// oracle/gradcheck on larger fixtures than conformance_test.cc affords.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "conformance/fuzz.h"
#include "conformance/gradcheck.h"
#include "conformance/oracle.h"
#include "core/registry.h"
#include "eval/eigen.h"
#include "sparse/adjacency.h"
#include "sparse/csr.h"
#include "tensor/rng.h"

namespace sgnn::conformance {
namespace {

struct Fixture {
  sparse::CsrMatrix norm;
  eval::EigenDecomposition eig;
  Matrix x;
};

Fixture ErFixture(int64_t n, uint64_t seed, double p, int64_t dim = 4) {
  Rng rng(seed);
  sparse::EdgeList edges;
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = i + 1; j < n; ++j) {
      if (rng.Bernoulli(p)) {
        edges.emplace_back(static_cast<int32_t>(i), static_cast<int32_t>(j));
      }
    }
  }
  auto adj = sparse::BuildAdjacency(n, edges, /*add_self_loops=*/true);
  SGNN_CHECK_OK(adj);
  Fixture f;
  f.norm = sparse::NormalizeAdjacency(adj.value(), 0.5);
  auto eig = eval::JacobiEigen(eval::DenseLaplacian(f.norm));
  SGNN_CHECK_OK(eig);
  f.eig = eig.MoveValue();
  Rng xrng(seed ^ 0xF00D);
  f.x = Matrix(n, dim, Device::kHost);
  f.x.FillNormal(&xrng);
  return f;
}

TEST(ConformanceFull, FuzzSweepAllFiltersTwoHundredTrials) {
  FuzzOptions opt;
  opt.base_seed = 1;
  opt.trials = 200;
  const FuzzReport report = RunFuzz(opt, /*supervisor=*/nullptr);
  EXPECT_EQ(report.trials, 200);
  EXPECT_EQ(report.failures, 0);
  for (const auto& f : report.failing) {
    ADD_FAILURE() << "seed=" << f.seed << " family=" << f.family << ": "
                  << f.detail << "\n  minimal: " << FormatCase(f.minimal);
  }
}

TEST(ConformanceFull, OracleOnLargerDenserGraph) {
  const Fixture fix = ErFixture(72, 21, 0.15, 6);
  auto reports = CheckAllFilters(fix.norm, fix.eig, fix.x);
  ASSERT_TRUE(reports.ok()) << reports.status().ToString();
  for (const auto& r : reports.value()) {
    EXPECT_TRUE(r.pass) << r.filter << ": rel=" << r.rel_error
                        << " tol=" << r.tolerance << " " << r.detail;
  }
}

TEST(ConformanceFull, OracleAtHigherPolynomialOrder) {
  const Fixture fix = ErFixture(40, 13, 0.2);
  OracleOptions opt;
  opt.hops = 10;
  auto reports = CheckAllFilters(fix.norm, fix.eig, fix.x, {}, opt);
  ASSERT_TRUE(reports.ok()) << reports.status().ToString();
  for (const auto& r : reports.value()) {
    EXPECT_TRUE(r.pass) << r.filter << ": rel=" << r.rel_error
                        << " tol=" << r.tolerance << " " << r.detail;
  }
}

TEST(ConformanceFull, GradCheckAtHigherOrderAndMoreCoords) {
  const Fixture fix = ErFixture(28, 9, 0.25);
  GradCheckOptions opt;
  opt.hops = 8;
  opt.max_coords = 96;
  auto reports = CheckAllGradients(fix.norm, fix.x, {}, opt);
  ASSERT_TRUE(reports.ok()) << reports.status().ToString();
  for (const auto& r : reports.value()) {
    EXPECT_TRUE(r.pass) << r.block << ": rel=" << r.max_rel_error
                        << " tol=" << r.tolerance << " " << r.detail;
  }
}

}  // namespace
}  // namespace sgnn::conformance
