// Unit tests for the core parallel layer (tensor/parallel.h): range chunking,
// nested-call fallback, exception latching, and the bit-identity contract of
// the parallelized kernels (serial and parallel schedules must produce the
// same bits — docs/PERFORMANCE.md).

#include "tensor/parallel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "conformance/oracle.h"
#include "core/registry.h"
#include "eval/eigen.h"
#include "runtime/fault_injection.h"
#include "sparse/adjacency.h"
#include "sparse/csr.h"
#include "sparse/push.h"
#include "tensor/ops.h"
#include "tensor/rng.h"

namespace sgnn {
namespace {

/// Scoped parallel::SetNumThreads override; restores the env/hardware
/// default on destruction so tests cannot leak a thread-count override.
class ThreadOverride {
 public:
  explicit ThreadOverride(int n) { parallel::SetNumThreads(n); }
  ~ThreadOverride() { parallel::SetNumThreads(0); }
};

/// Random (symmetrized, self-looped) graph for kernel equality checks.
sparse::CsrMatrix RandomGraph(int64_t n, int64_t edges_per_node,
                              uint64_t seed) {
  Rng rng(seed);
  sparse::EdgeList edges;
  for (int64_t e = 0; e < n * edges_per_node; ++e) {
    edges.push_back({static_cast<int32_t>(rng.UniformInt(
                         static_cast<uint64_t>(n))),
                     static_cast<int32_t>(rng.UniformInt(
                         static_cast<uint64_t>(n)))});
  }
  auto r = sparse::BuildAdjacency(n, edges, /*add_self_loops=*/true);
  EXPECT_TRUE(r.ok());
  return r.MoveValue();
}

bool BitIdentical(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.size()) * sizeof(float)) == 0;
}

TEST(ParallelFor, EmptyRangeRunsNothing) {
  int calls = 0;
  parallel::ParallelFor(5, 5, 1, [&](int64_t, int64_t) { ++calls; });
  parallel::ParallelFor(7, 3, 1, [&](int64_t, int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ParallelFor, SingletonRangeRunsOnce) {
  ThreadOverride threads(4);
  std::atomic<int> calls{0};
  parallel::ParallelFor(3, 4, 1, [&](int64_t lo, int64_t hi) {
    EXPECT_EQ(lo, 3);
    EXPECT_EQ(hi, 4);
    ++calls;
  });
  EXPECT_EQ(calls.load(), 1);
}

TEST(ParallelFor, UnevenRangeCoversEveryIndexOnce) {
  // 10 items at grain 3: chunks [0,3) [3,6) [6,9) [9,10).
  for (const int threads : {1, 4}) {
    ThreadOverride override(threads);
    std::vector<std::atomic<int>> hits(10);
    parallel::ParallelFor(0, 10, 3, [&](int64_t lo, int64_t hi) {
      EXPECT_EQ(lo % 3, 0);
      EXPECT_LE(hi - lo, 3);
      for (int64_t i = lo; i < hi; ++i) ++hits[static_cast<size_t>(i)];
    });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ParallelFor, ChunkBoundariesIndependentOfThreadCount) {
  auto boundaries = [](int threads) {
    ThreadOverride override(threads);
    std::mutex mu;
    std::vector<std::pair<int64_t, int64_t>> seen;
    parallel::ParallelFor(2, 101, 7, [&](int64_t lo, int64_t hi) {
      std::lock_guard<std::mutex> lock(mu);
      seen.emplace_back(lo, hi);
    });
    std::sort(seen.begin(), seen.end());
    return seen;
  };
  EXPECT_EQ(boundaries(1), boundaries(2));
  EXPECT_EQ(boundaries(1), boundaries(8));
}

TEST(ParallelFor, NestedCallRunsSeriallyInline) {
  ThreadOverride threads(4);
  std::vector<std::atomic<int>> hits(64);
  parallel::ParallelFor(0, 8, 1, [&](int64_t outer_lo, int64_t outer_hi) {
    EXPECT_TRUE(parallel::InParallelRegion());
    for (int64_t o = outer_lo; o < outer_hi; ++o) {
      // The nested call must not deadlock on the single pool task slot and
      // must still cover its range exactly once.
      parallel::ParallelFor(0, 8, 1, [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) {
          ++hits[static_cast<size_t>(o * 8 + i)];
        }
      });
    }
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, ExceptionLatchedAndRethrown) {
  for (const int threads : {1, 4}) {
    ThreadOverride override(threads);
    std::atomic<int> chunks_run{0};
    EXPECT_THROW(
        parallel::ParallelFor(0, 16, 1,
                              [&](int64_t lo, int64_t) {
                                ++chunks_run;
                                if (lo == 5) {
                                  throw std::runtime_error("chunk 5");
                                }
                              }),
        std::runtime_error);
    // The first exception is latched, not propagated mid-loop: remaining
    // chunks still execute so partially-written outputs stay well-defined.
    EXPECT_EQ(chunks_run.load(), 16);
  }
}

TEST(ParallelConfig, OverrideBeatsEnvironment) {
  parallel::SetNumThreads(3);
  EXPECT_EQ(parallel::NumThreads(), 3);
  parallel::SetNumThreads(0);
  EXPECT_GE(parallel::NumThreads(), 1);
}

TEST(ParallelConfig, ClearingOverrideRestoresEnvOrHardwareDefault) {
  // The default is resolved once; SetNumThreads(0) must fall back to it.
  const char* env = std::getenv("SGNN_NUM_THREADS");
  int expected = 0;
  if (env != nullptr && env[0] != '\0') {
    expected = std::max(1, std::atoi(env));
  } else {
    expected = std::max(
        1, static_cast<int>(std::thread::hardware_concurrency()));
  }
  EXPECT_EQ(parallel::NumThreads(), expected);
  parallel::SetNumThreads(expected + 2);
  EXPECT_EQ(parallel::NumThreads(), expected + 2);
  parallel::SetNumThreads(0);
  EXPECT_EQ(parallel::NumThreads(), expected);
  EXPECT_EQ(parallel::NumThreads(), expected);  // stable across calls
}

TEST(ParallelConfig, GrainAndChunkHelpers) {
  EXPECT_EQ(parallel::GrainForFlops(16, int64_t{1} << 16), 4096);
  EXPECT_EQ(parallel::GrainForFlops(int64_t{1} << 20, int64_t{1} << 16), 1);
  EXPECT_EQ(parallel::NumChunks(0, 10, 3), 4);
  EXPECT_EQ(parallel::NumChunks(0, 0, 3), 0);
}

TEST(BitIdentity, SpMMSerialVsParallel) {
  sparse::CsrMatrix a = RandomGraph(400, 6, 11);
  Rng rng(12);
  Matrix x(400, 9);
  x.FillNormal(&rng);
  Matrix serial(400, 9), parallel_out(400, 9);
  {
    ThreadOverride threads(1);
    a.SpMM(x, &serial);
  }
  {
    ThreadOverride threads(4);
    a.SpMM(x, &parallel_out);
  }
  EXPECT_TRUE(BitIdentical(serial, parallel_out));
}

TEST(BitIdentity, GemmFamilySerialVsParallel) {
  Rng rng(21);
  Matrix a(257, 31), b(31, 19), at(31, 257), bt(19, 31);
  a.FillNormal(&rng);
  b.FillNormal(&rng);
  at.FillNormal(&rng);
  bt.FillNormal(&rng);
  Matrix s1(257, 19), p1(257, 19);
  Matrix s2(257, 19), p2(257, 19);
  Matrix s3(257, 19), p3(257, 19);
  {
    ThreadOverride threads(1);
    ops::Gemm(a, b, &s1);
    ops::GemmTransA(at, b, &s2);
    ops::GemmTransB(a, bt, &s3);
  }
  {
    ThreadOverride threads(4);
    ops::Gemm(a, b, &p1);
    ops::GemmTransA(at, b, &p2);
    ops::GemmTransB(a, bt, &p3);
  }
  EXPECT_TRUE(BitIdentical(s1, p1));
  EXPECT_TRUE(BitIdentical(s2, p2));
  EXPECT_TRUE(BitIdentical(s3, p3));
}

TEST(BitIdentity, PushSerialVsParallel) {
  sparse::CsrMatrix a = RandomGraph(600, 5, 31);
  sparse::CsrMatrix norm = sparse::NormalizeAdjacency(a, 0.5);
  std::vector<float> x(600, 0.0f);
  Rng rng(32);
  for (auto& v : x) v = static_cast<float>(rng.Normal());
  sparse::PushConfig cfg;
  cfg.epsilon = 1e-5;
  std::vector<float> serial, parallel_out;
  ThreadOverride threads(1);
  const auto s_stats = sparse::ApproxPprPush(norm, cfg, x, &serial);
  parallel::SetNumThreads(4);
  const auto p_stats = sparse::ApproxPprPush(norm, cfg, x, &parallel_out);
  EXPECT_EQ(s_stats.pushes, p_stats.pushes);
  EXPECT_EQ(s_stats.edge_touches, p_stats.edge_touches);
  EXPECT_EQ(s_stats.residual_l1, p_stats.residual_l1);
  ASSERT_EQ(serial.size(), parallel_out.size());
  EXPECT_EQ(std::memcmp(serial.data(), parallel_out.data(),
                        serial.size() * sizeof(float)),
            0);
}

TEST(BitIdentity, PushMatrixSerialVsParallel) {
  sparse::CsrMatrix a = RandomGraph(300, 4, 41);
  sparse::CsrMatrix norm = sparse::NormalizeAdjacency(a, 0.5);
  Rng rng(42);
  Matrix x(300, 6);
  x.FillNormal(&rng);
  sparse::PushConfig cfg;
  cfg.epsilon = 1e-5;
  Matrix serial, parallel_out;
  {
    ThreadOverride threads(1);
    sparse::ApproxPprPushMatrix(norm, cfg, x, &serial);
  }
  {
    ThreadOverride threads(4);
    sparse::ApproxPprPushMatrix(norm, cfg, x, &parallel_out);
  }
  EXPECT_TRUE(BitIdentical(serial, parallel_out));
}

TEST(BitIdentity, HoldsUnderInjectedAllocFaults) {
  // Host-side kernels must not consume the accelerator fault budget, so an
  // armed plan neither perturbs the parallel results nor fires early.
  runtime::FaultPlan plan;
  plan.accel_alloc_fail_nth = 1;
  runtime::FaultInjector::Global().Arm(plan);
  sparse::CsrMatrix a = RandomGraph(200, 5, 51);
  sparse::CsrMatrix norm = sparse::NormalizeAdjacency(a, 0.5);
  Rng rng(52);
  Matrix x(200, 5);
  x.FillNormal(&rng);
  Matrix y_serial(200, 5), y_parallel(200, 5);
  Matrix push_serial, push_parallel;
  sparse::PushConfig cfg;
  {
    ThreadOverride threads(1);
    a.SpMM(x, &y_serial);
    sparse::ApproxPprPushMatrix(norm, cfg, x, &push_serial);
  }
  {
    ThreadOverride threads(4);
    a.SpMM(x, &y_parallel);
    sparse::ApproxPprPushMatrix(norm, cfg, x, &push_parallel);
  }
  EXPECT_TRUE(BitIdentical(y_serial, y_parallel));
  EXPECT_TRUE(BitIdentical(push_serial, push_parallel));
  EXPECT_EQ(runtime::FaultInjector::Global().observed_accel_allocs(), 0u);
  EXPECT_EQ(runtime::FaultInjector::Global().injected_alloc_faults(), 0u);
  // The one-shot fault is still pending: the next accelerator allocation
  // trips it, exactly as it would have with no parallel work in between.
  Matrix dev(4, 4, Device::kAccel);
  EXPECT_EQ(runtime::FaultInjector::Global().injected_alloc_faults(), 1u);
  EXPECT_TRUE(DeviceTracker::Global().accel_oom());
  runtime::FaultInjector::Global().Disarm();
  DeviceTracker::Global().ClearOom();
}

// Thread-count conformance matrix: the spectral oracle must hold — and
// filter propagation must stay bit-identical — at SGNN_NUM_THREADS ∈
// {1, 4, hardware}. A kernel whose reduction order (and hence rounding)
// shifted with the worker count would fail the bit-identity leg even while
// staying inside the oracle tolerance.
TEST(ThreadMatrix, OracleHoldsAtEveryThreadCount) {
  auto fixture = RandomGraph(24, 4, 17);
  const sparse::CsrMatrix norm = sparse::NormalizeAdjacency(fixture, 0.5);
  auto eig = eval::JacobiEigen(eval::DenseLaplacian(norm));
  ASSERT_TRUE(eig.ok()) << eig.status().ToString();
  Rng xrng(23);
  Matrix x(norm.n(), 3, Device::kHost);
  x.FillNormal(&xrng);
  // 0 = restore the env/hardware default — the "hardware" column.
  for (const int threads : {1, 4, 0}) {
    ThreadOverride scope(threads);
    auto reports = conformance::CheckAllFilters(norm, eig.value(), x);
    ASSERT_TRUE(reports.ok()) << reports.status().ToString();
    for (const auto& r : reports.value()) {
      EXPECT_TRUE(r.pass) << "threads=" << parallel::NumThreads() << " "
                          << r.filter << ": rel=" << r.rel_error << " "
                          << r.detail;
    }
  }
}

TEST(ThreadMatrix, FilterForwardBitIdenticalAcrossThreadCounts) {
  auto fixture = RandomGraph(48, 5, 29);
  const sparse::CsrMatrix norm = sparse::NormalizeAdjacency(fixture, 0.5);
  Rng xrng(31);
  Matrix x(norm.n(), 8, Device::kHost);
  x.FillNormal(&xrng);
  filters::FilterContext ctx{&norm, Device::kHost};
  for (const char* name : {"ppr", "chebyshev", "bernstein", "optbasis"}) {
    std::vector<Matrix> outputs;
    for (const int threads : {1, 4, 0}) {
      ThreadOverride scope(threads);
      auto filter = filters::CreateFilter(name, 6);
      ASSERT_TRUE(filter.ok()) << name;
      Rng prng(7);
      filter.value()->ResetParameters(&prng);
      Matrix y;
      filter.value()->Forward(ctx, x, &y, /*cache=*/false);
      outputs.push_back(std::move(y));
    }
    EXPECT_TRUE(BitIdentical(outputs[0], outputs[1]))
        << name << ": 1 vs 4 threads";
    EXPECT_TRUE(BitIdentical(outputs[0], outputs[2]))
        << name << ": 1 thread vs hardware default";
  }
}

}  // namespace
}  // namespace sgnn
