// Fast conformance suite (labels: tier1, conformance_fast).
//
// Exercises the spectral oracle, the variant table (quantized and sharded
// execution vs the oracle), the finite-difference gradient checker, and the
// property-based fuzz layer on small fixture graphs. The long fuzz
// sweeps live in conformance_full_test.cc (label conformance_full).

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "conformance/fuzz.h"
#include "conformance/gradcheck.h"
#include "conformance/oracle.h"
#include "conformance/variants.h"
#include "core/registry.h"
#include "eval/eigen.h"
#include "runtime/supervisor.h"
#include "sparse/adjacency.h"
#include "sparse/csr.h"
#include "tensor/ops.h"
#include "tensor/rng.h"
#include "tests/temp_path.h"

namespace sgnn::conformance {
namespace {

struct Fixture {
  sparse::CsrMatrix norm;
  eval::EigenDecomposition eig;
  Matrix x;
};

// Deterministic ER fixture (symmetric normalization, required by the oracle).
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

using testing_util::TempPath;

// --- spectral oracle -------------------------------------------------------

TEST(Oracle, AllTwentySevenFiltersMatchDenseSpectralApply) {
  const Fixture fix = ErFixture(32, 7, 0.2);
  auto reports = CheckAllFilters(fix.norm, fix.eig, fix.x);
  ASSERT_TRUE(reports.ok()) << reports.status().ToString();
  EXPECT_EQ(reports.value().size(), filters::AllFilterNames().size());
  for (const auto& r : reports.value()) {
    EXPECT_TRUE(r.pass) << r.filter << ": rel=" << r.rel_error
                        << " tol=" << r.tolerance << " " << r.detail;
    EXPECT_LE(r.rel_error, r.tolerance) << r.filter;
  }
}

// A filter list runs exactly those filters, in list order; the gradient
// check adds its Mlp and loss blocks only to the all-filter run.
TEST(Oracle, FilterListSelectsThoseFiltersInOrder) {
  const Fixture fix = ErFixture(16, 5, 0.3);
  const std::vector<std::string> names = {"ppr", "chebyshev"};
  auto reports = CheckAllFilters(fix.norm, fix.eig, fix.x, names);
  ASSERT_TRUE(reports.ok()) << reports.status().ToString();
  ASSERT_EQ(reports.value().size(), 2u);
  EXPECT_EQ(reports.value()[0].filter, "ppr");
  EXPECT_EQ(reports.value()[1].filter, "chebyshev");

  auto grads = CheckAllGradients(fix.norm, fix.x, {"chebyshev"});
  ASSERT_TRUE(grads.ok()) << grads.status().ToString();
  auto single = CheckFilterGradients("chebyshev", fix.norm, fix.x);
  ASSERT_TRUE(single.ok()) << single.status().ToString();
  ASSERT_EQ(grads.value().size(), single.value().size());
  for (size_t i = 0; i < grads.value().size(); ++i) {
    EXPECT_EQ(grads.value()[i].block, single.value()[i].block);
  }
}

TEST(Oracle, MiniBatchPrecomputeMatchesFullBatchForward) {
  const Fixture fix = ErFixture(24, 19, 0.25);
  auto reports = CheckAllFilters(fix.norm, fix.eig, fix.x);
  ASSERT_TRUE(reports.ok()) << reports.status().ToString();
  for (const auto& r : reports.value()) {
    // mb_rel_error stays 0 for FB-only filters; the reconstructed MB
    // combination must otherwise agree with the FB forward.
    EXPECT_LE(r.mb_rel_error, r.tolerance) << r.filter << " " << r.detail;
  }
}

TEST(Oracle, DetectsCorruptedPropagation) {
  // Negative control: pair the eigendecomposition of the rho=0.5 Laplacian
  // with a rho=0.8 (asymmetric) propagation matrix. The oracle must notice.
  Rng rng(7);
  sparse::EdgeList edges;
  const int64_t n = 24;
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = i + 1; j < n; ++j) {
      if (rng.Bernoulli(0.25)) {
        edges.emplace_back(static_cast<int32_t>(i), static_cast<int32_t>(j));
      }
    }
  }
  auto adj = sparse::BuildAdjacency(n, edges, /*add_self_loops=*/true);
  ASSERT_TRUE(adj.ok());
  const sparse::CsrMatrix sym = sparse::NormalizeAdjacency(adj.value(), 0.5);
  const sparse::CsrMatrix skew = sparse::NormalizeAdjacency(adj.value(), 0.8);
  auto eig = eval::JacobiEigen(eval::DenseLaplacian(sym));
  ASSERT_TRUE(eig.ok());
  Rng xrng(99);
  Matrix x(n, 3, Device::kHost);
  x.FillNormal(&xrng);
  auto report = CheckSpectralConformance("ppr", skew, eig.value(), x);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(report.value().pass)
      << "oracle accepted a mismatched propagation matrix (rel="
      << report.value().rel_error << ")";
}

TEST(Oracle, TolerancesAreDocumentedAndTight) {
  for (const auto& name : filters::AllFilterNames()) {
    const double tol = OracleTolerance(name);
    EXPECT_GT(tol, 0.0) << name;
    EXPECT_LE(tol, 8e-3) << name;
  }
}

// --- variant table ---------------------------------------------------------

TEST(ConformanceVariants, EveryRowPassesEveryFilterAndSkipsOnlyPinnedOnes) {
  // The MB rows skip exactly the full-batch-only filters, named here rather
  // than read from SupportsMiniBatch() so a filter that silently loses (or
  // gains) its MB path shows up. The shard row runs every filter; it may
  // skip only an optbasis Lanczos breakdown.
  const std::set<std::string> fb_only = {"favard",  "adagnn",  "fbgnn1",
                                         "fbgnn2",  "acmgnn1", "acmgnn2"};
  for (const Fixture& fix : {ErFixture(32, 7, 0.2), ErFixture(24, 19, 0.25)}) {
    auto reports = CheckAllVariants(fix.norm, fix.eig, fix.x);
    ASSERT_TRUE(reports.ok()) << reports.status().ToString();
    EXPECT_EQ(reports.value().size(),
              Variants().size() * filters::AllFilterNames().size());
    EXPECT_TRUE(AllPass(reports.value())) << FormatReports(reports.value());
    std::set<std::string> fp16_skips;
    std::set<std::string> int8_skips;
    for (const auto& r : reports.value()) {
      if (!r.skipped) continue;
      if (r.variant == "fp16") fp16_skips.insert(r.filter);
      if (r.variant == "int8") int8_skips.insert(r.filter);
      if (r.variant == "shard") {
        EXPECT_EQ(r.filter, "optbasis");
        EXPECT_NE(r.detail.find("lanczos breakdown"), std::string::npos)
            << r.detail;
      }
    }
    EXPECT_EQ(fp16_skips, fb_only);
    EXPECT_EQ(int8_skips, fb_only);
  }
}

TEST(ConformanceVariants, ScaledOutputFailsWithDivergenceDetail) {
  // Negative control: a row whose output is off by 3x the tolerance.
  const Fixture fix = ErFixture(24, 19, 0.25);
  const double tol = OracleTolerance("ppr");
  const Variant scaled{
      "scaled", 0.0, /*needs_minibatch=*/false,
      [tol](filters::SpectralFilter* filter, const filters::FilterContext& ctx,
            const Matrix& x) -> Result<VariantOutput> {
        VariantOutput out;
        filter->Forward(ctx, x, &out.y, /*cache=*/false);
        ops::Scale(static_cast<float>(1.0 + 3.0 * tol), &out.y);
        return out;
      }};
  auto report = CheckVariant(scaled, "ppr", fix.norm, fix.eig, fix.x);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(report.value().pass) << "rel=" << report.value().rel_error;
  EXPECT_GT(report.value().rel_error, report.value().tolerance);
  EXPECT_EQ(report.value().detail,
            "output diverges from dense spectral operator");
}

TEST(ConformanceVariants, BrokenContractFailsEvenAtZeroError) {
  // The row returns the dense reference itself, so rel_error is exactly 0;
  // its exactness contract still fails, and that alone must fail the row.
  const Fixture fix = ErFixture(24, 19, 0.25);
  auto identity = filters::CreateFilter("identity", 6, {}, fix.x.cols());
  ASSERT_TRUE(identity.ok());
  bool degenerate = false;
  const Matrix ref = DenseReference(identity.value().get(), "identity",
                                    fix.norm, fix.eig, fix.x, 6, &degenerate);
  ASSERT_FALSE(degenerate);
  const Variant broken{
      "broken", 0.0, /*needs_minibatch=*/false,
      [&ref](filters::SpectralFilter*, const filters::FilterContext&,
             const Matrix&) -> Result<VariantOutput> {
        return VariantOutput{ref, "forward differs at K=2"};
      }};
  auto report = CheckVariant(broken, "identity", fix.norm, fix.eig, fix.x);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report.value().rel_error, 0.0);
  EXPECT_FALSE(report.value().pass);
  EXPECT_EQ(report.value().detail, "forward differs at K=2");
}

TEST(ConformanceVariants, ShapeMismatchIsInvalidArgument) {
  const Fixture fix = ErFixture(24, 19, 0.25);
  const Fixture other = ErFixture(20, 3, 0.3);
  for (const Variant& row : Variants()) {
    auto report = CheckVariant(row, "ppr", fix.norm, fix.eig, other.x);
    ASSERT_FALSE(report.ok()) << row.name;
    EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument)
        << row.name;
  }
}

// --- finite-difference gradient checker ------------------------------------

TEST(GradCheck, AllParameterBlocksMatchManualBackward) {
  const Fixture fix = ErFixture(20, 3, 0.3);
  auto reports = CheckAllGradients(fix.norm, fix.x);
  ASSERT_TRUE(reports.ok()) << reports.status().ToString();
  EXPECT_FALSE(reports.value().empty());
  for (const auto& r : reports.value()) {
    EXPECT_TRUE(r.pass) << r.block << ": rel=" << r.max_rel_error
                        << " tol=" << r.tolerance << " " << r.detail;
  }
}

TEST(GradCheck, SingleFilterThetaBlockWithinTolerance) {
  const Fixture fix = ErFixture(16, 5, 0.3);
  auto reports = CheckFilterGradients("chebyshev", fix.norm, fix.x);
  ASSERT_TRUE(reports.ok()) << reports.status().ToString();
  bool saw_theta = false;
  for (const auto& r : reports.value()) {
    if (r.block.find("theta") != std::string::npos) {
      saw_theta = true;
      EXPECT_TRUE(r.pass) << r.block << " rel=" << r.max_rel_error;
      EXPECT_LT(r.max_rel_error, 1e-4) << r.block;
    }
  }
  EXPECT_TRUE(saw_theta);
}

TEST(GradCheck, LossGradientsMatchFiniteDifferences) {
  const auto reports = CheckLossGradients();
  EXPECT_GE(reports.size(), 3u);  // softmax_ce, bce, mse at least
  for (const auto& r : reports) {
    EXPECT_TRUE(r.pass) << r.block << ": rel=" << r.max_rel_error << " "
                        << r.detail;
  }
}

// --- property-based fuzzing ------------------------------------------------

TEST(Fuzz, CaseFromSeedIsDeterministic) {
  for (uint64_t seed : {1ull, 42ull, 1234ull}) {
    const FuzzCase a = CaseFromSeed(seed);
    const FuzzCase b = CaseFromSeed(seed);
    EXPECT_EQ(a.family, b.family);
    EXPECT_EQ(a.n, b.n);
    EXPECT_EQ(a.hops, b.hops);
    EXPECT_EQ(a.edges, b.edges);
    EXPECT_EQ(a.self_loops, b.self_loops);
  }
}

TEST(Fuzz, ShortSweepPassesOnSubsetOfFilters) {
  FuzzOptions opt;
  opt.base_seed = 1;
  opt.trials = 12;
  opt.filters = {"ppr", "chebyshev", "bernstein", "adagnn"};
  const FuzzReport report = RunFuzz(opt, /*supervisor=*/nullptr);
  EXPECT_EQ(report.trials, 12);
  EXPECT_EQ(report.failures, 0) << FormatCase(report.failing.empty()
                                                  ? FuzzCase{}
                                                  : report.failing[0].minimal);
}

TEST(Fuzz, ShrinkerReducesInjectedFailureToMinimalGraph) {
  // Property that fails on any zero-degree node (self loops off): the
  // shrinker must reduce any failing case to a single isolated node.
  const CaseCheck has_isolated = [](const FuzzCase& c) -> TrialResult {
    if (c.self_loops) return {true, ""};
    std::vector<int> degree(static_cast<size_t>(c.n), 0);
    for (const auto& e : c.edges) {
      ++degree[static_cast<size_t>(e.first)];
      ++degree[static_cast<size_t>(e.second)];
    }
    for (int d : degree) {
      if (d == 0) return {false, "zero-degree node"};
    }
    return {true, ""};
  };
  bool found = false;
  for (uint64_t seed = 1; seed < 512 && !found; ++seed) {
    const FuzzCase c = CaseFromSeed(seed);
    if (has_isolated(c).pass) continue;
    found = true;
    const FuzzCase minimal = ShrinkCase(c, has_isolated);
    EXPECT_EQ(minimal.n, 1) << FormatCase(minimal);
    EXPECT_TRUE(minimal.edges.empty()) << FormatCase(minimal);
    EXPECT_FALSE(has_isolated(minimal).pass);
  }
  EXPECT_TRUE(found) << "no seed in [1,512) produced an isolated node";
}

TEST(Fuzz, JournaledSweepResumesWithoutRerunningTrials) {
  const std::string journal = TempPath("conformance_fuzz_resume.jsonl");
  std::remove(journal.c_str());
  FuzzOptions opt;
  opt.base_seed = 77;
  opt.trials = 6;
  opt.filters = {"ppr", "linear"};
  {
    runtime::Supervisor supervisor("conformance_fuzz", journal);
    const FuzzReport first = RunFuzz(opt, &supervisor);
    EXPECT_EQ(first.trials, 6);
    EXPECT_EQ(first.failures, 0);
    EXPECT_EQ(first.resumed, 0);
  }
  {
    runtime::Supervisor supervisor("conformance_fuzz", journal);
    const FuzzReport second = RunFuzz(opt, &supervisor);
    EXPECT_EQ(second.trials, 6);
    EXPECT_EQ(second.failures, 0);
    EXPECT_EQ(second.resumed, 6);
  }
  std::remove(journal.c_str());
}

}  // namespace
}  // namespace sgnn::conformance
