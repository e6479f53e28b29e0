// Google-benchmark microbenchmarks for the kernels underlying the paper's
// complexity model, plus the ablation of the basis-term caching design
// choice called out in DESIGN.md.

#include <benchmark/benchmark.h>

#include "core/lazy.h"
#include "core/registry.h"
#include "graph/generator.h"
#include "sparse/adjacency.h"
#include "sparse/edge_index.h"
#include "tensor/ops.h"

namespace {

using namespace sgnn;

graph::Graph MakeGraph(int64_t n, double deg) {
  graph::GeneratorConfig gc;
  gc.n = n;
  gc.avg_degree = deg;
  gc.num_classes = 4;
  gc.feature_dim = 32;
  gc.seed = 77;
  return graph::GenerateSbm(gc);
}

/// O(mF) propagation: CSR SpMM (the "SP backend").
void BM_SpMM(benchmark::State& state) {
  const int64_t n = state.range(0);
  graph::Graph g = MakeGraph(n, 10.0);
  sparse::CsrMatrix norm = sparse::NormalizeAdjacency(g.adj, 0.5);
  Matrix y(n, 32);
  for (auto _ : state) {
    norm.SpMM(g.features, &y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * norm.nnz() * 32);
  state.SetLabel(ops::KernelIsa());
}
BENCHMARK(BM_SpMM)->Arg(2000)->Arg(8000)->Arg(32000);

/// O(mF) propagation with an O(mF) message buffer: the "EI backend".
void BM_EdgeIndexPropagate(benchmark::State& state) {
  const int64_t n = state.range(0);
  graph::Graph g = MakeGraph(n, 10.0);
  sparse::CsrMatrix norm = sparse::NormalizeAdjacency(g.adj, 0.5);
  sparse::EdgeIndex ei(norm);
  Matrix y(n, 32);
  for (auto _ : state) {
    ei.PropagateGatherScatter(g.features, &y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * ei.num_edges() * 32);
}
BENCHMARK(BM_EdgeIndexPropagate)->Arg(2000)->Arg(8000);

/// O(nF^2) transformation (dense GEMM with a weight matrix).
void BM_Transformation(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(1);
  Matrix x(n, 64), w(64, 64), y(n, 64);
  x.FillNormal(&rng);
  w.FillNormal(&rng);
  for (auto _ : state) {
    ops::Gemm(x, w, &y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * n * 64 * 64);
  state.SetLabel(ops::KernelIsa());
}
BENCHMARK(BM_Transformation)->Arg(2000)->Arg(8000);

/// Weight gradient of the FB MLP's first layer: x^T g with x 80000 x 32 and
/// g 80000 x 64 (k = 80000 rows reduced into a 32 x 64 output).
void BM_GemmTransA(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(2);
  Matrix x(n, 32), g(n, 64), dw(32, 64);
  x.FillNormal(&rng);
  g.FillNormal(&rng);
  for (auto _ : state) {
    ops::GemmTransA(x, g, &dw);
    benchmark::DoNotOptimize(dw.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * n * 32 * 64);
  state.SetLabel(ops::KernelIsa());
}
BENCHMARK(BM_GemmTransA)->Arg(80000);

/// Input gradient of the FB MLP's output layer: g W^T with g 80000 x 2 and
/// W 64 x 2 (an 80000 x 64 output from a 2-wide inner dimension).
void BM_GemmTransB(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(3);
  Matrix g(n, 2), w(64, 2), dx(n, 64);
  g.FillNormal(&rng);
  w.FillNormal(&rng);
  for (auto _ : state) {
    ops::GemmTransB(g, w, &dx);
    benchmark::DoNotOptimize(dx.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * n * 2 * 64);
  state.SetLabel(ops::KernelIsa());
}
BENCHMARK(BM_GemmTransB)->Arg(80000);

/// Elementwise and column kernels on an n x 64 representation: the
/// filter's own per-hop work (Axpy, Scale), the MLP bias (AddRowBroadcast)
/// and the bias gradient (ColumnSum). Bytes count each operand read or
/// written once.
void BM_Elementwise(benchmark::State& state, const std::string& kernel) {
  const int64_t n = state.range(0);
  Rng rng(4);
  Matrix x(n, 64), y(n, 64), bias(1, 64);
  x.FillNormal(&rng);
  y.FillNormal(&rng);
  bias.FillNormal(&rng);
  int64_t passes = 0;  // n x 64 float arrays touched per call
  for (auto _ : state) {
    if (kernel == "axpy") {
      ops::Axpy(1e-3f, x, &y);
      passes = 3;
    } else if (kernel == "scale") {
      ops::Scale(0.999f, &y);
      passes = 2;
    } else if (kernel == "add_row_broadcast") {
      ops::AddRowBroadcast(bias, &y);
      passes = 2;
    } else {
      ops::ColumnSum(x, &bias);
      passes = 1;
    }
    benchmark::DoNotOptimize(y.data());
    benchmark::DoNotOptimize(bias.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() * passes * n * 64 *
                          static_cast<int64_t>(sizeof(float)));
  state.SetLabel(ops::KernelIsa());
}
// Rates from wall time: the kernels run on the pool's threads too.
BENCHMARK_CAPTURE(BM_Elementwise, axpy, "axpy")
    ->Arg(4000)
    ->Arg(80000)
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_Elementwise, scale, "scale")
    ->Arg(4000)
    ->Arg(80000)
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_Elementwise, add_row_broadcast, "add_row_broadcast")
    ->Arg(4000)
    ->Arg(80000)
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_Elementwise, column_sum, "column_sum")
    ->Arg(4000)
    ->Arg(80000)
    ->UseRealTime();

/// One three-term recurrence hop out = 2·(A·x) + 0.5·x − prev on an n x 64
/// block: the fused op-graph node (second arg 1: CsrSpmmOperator::ApplyAffine,
/// the step applied in SpMM's registers) vs the four-pass chain it replaced
/// (second arg 0: SpMM, Scale, Axpy, Axpy). Same bits either way.
void BM_FusedHop(benchmark::State& state) {
  const int64_t n = state.range(0);
  const bool fused = state.range(1) != 0;
  graph::Graph g = MakeGraph(n, 10.0);
  sparse::CsrMatrix norm = sparse::NormalizeAdjacency(g.adj, 0.5);
  const filters::CsrSpmmOperator op(&norm);
  Rng rng(5);
  Matrix x(n, 64), prev(n, 64), out(n, 64);
  x.FillNormal(&rng);
  prev.FillNormal(&rng);
  ops::AffineEpilogue ep;
  ep.ca = 2.0f;
  ep.ci = 0.5f;
  ep.in1 = &x;
  ep.cp = -1.0f;
  ep.in2 = &prev;
  for (auto _ : state) {
    if (fused) {
      op.ApplyAffine(x, ep, &out);
    } else {
      op.Apply(x, &out);
      ops::Scale(ep.ca, &out);
      ops::Axpy(ep.ci, x, &out);
      ops::Axpy(ep.cp, prev, &out);
    }
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * norm.nnz() * 64);
  state.SetLabel(ops::KernelIsa());
}
BENCHMARK(BM_FusedHop)
    ->Args({4000, 0})
    ->Args({4000, 1})
    ->Args({80000, 0})
    ->Args({80000, 1})
    ->UseRealTime();

/// Per-type filter forward cost on the same graph (Table 1 Time column).
void BM_FilterForward(benchmark::State& state,
                      const std::string& filter_name) {
  graph::Graph g = MakeGraph(4000, 10.0);
  sparse::CsrMatrix norm = sparse::NormalizeAdjacency(g.adj, 0.5);
  auto filter = filters::CreateFilter(filter_name, 10, {}, 32).MoveValue();
  filters::FilterContext ctx{&norm, Device::kHost};
  Matrix y;
  for (auto _ : state) {
    filter->Forward(ctx, g.features, &y, false);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK_CAPTURE(BM_FilterForward, ppr, "ppr");
BENCHMARK_CAPTURE(BM_FilterForward, chebyshev, "chebyshev");
BENCHMARK_CAPTURE(BM_FilterForward, bernstein, "bernstein");
BENCHMARK_CAPTURE(BM_FilterForward, optbasis, "optbasis");
BENCHMARK_CAPTURE(BM_FilterForward, figure, "figure");

/// Ablation: forward with basis caching (variable-filter training path)
/// vs streaming (fixed/inference path) — time and memory trade-off.
void BM_ForwardCached(benchmark::State& state) {
  graph::Graph g = MakeGraph(4000, 10.0);
  sparse::CsrMatrix norm = sparse::NormalizeAdjacency(g.adj, 0.5);
  auto filter = filters::CreateFilter("chebyshev", 10, {}, 32).MoveValue();
  filters::FilterContext ctx{&norm, Device::kHost};
  const bool cache = state.range(0) != 0;
  Matrix y;
  auto& tracker = DeviceTracker::Global();
  tracker.ResetPeak();
  for (auto _ : state) {
    filter->Forward(ctx, g.features, &y, cache);
    filter->ClearCache();
    benchmark::DoNotOptimize(y.data());
  }
  state.counters["peak_host_mb"] = static_cast<double>(
      tracker.peak_bytes(Device::kHost)) / 1e6;
}
BENCHMARK(BM_ForwardCached)->Arg(0)->Arg(1);

/// Op-graph forward (docs/OPGRAPH.md) per recorded filter at K=10.
/// Counters journal the measured host peak, the planner's predicted peak
/// (equal to the measured growth by contract), and the number of SpMM
/// chains fusion collapsed.
void BM_ForwardLazy(benchmark::State& state, const std::string& filter_name) {
  graph::Graph g = MakeGraph(4000, 10.0);
  sparse::CsrMatrix norm = sparse::NormalizeAdjacency(g.adj, 0.5);
  auto filter = filters::CreateFilter(filter_name, 10, {}, 32).MoveValue();
  filters::FilterContext ctx{&norm, Device::kHost};
  Matrix y;
  opgraph::PipelineStats stats;
  auto& tracker = DeviceTracker::Global();
  tracker.ResetPeak();
  for (auto _ : state) {
    if (!filters::LazyForward(filter.get(), ctx, g.features, &y, &stats)
             .ok()) {
      state.SkipWithError("op-graph forward failed");
      return;
    }
    benchmark::DoNotOptimize(y.data());
  }
  state.counters["peak_host_mb"] =
      static_cast<double>(tracker.peak_bytes(Device::kHost)) / 1e6;
  state.counters["planned_peak_mb"] =
      static_cast<double>(stats.planned_peak_bytes) / 1e6;
  state.counters["fused_chains"] = static_cast<double>(stats.fused_spmm_chains);
}
BENCHMARK_CAPTURE(BM_ForwardLazy, chebyshev, "chebyshev");
BENCHMARK_CAPTURE(BM_ForwardLazy, ppr, "ppr");
BENCHMARK_CAPTURE(BM_ForwardLazy, gnn_lf_hf, "gnn_lf_hf");

/// Graph normalization cost over ρ (all equal; sanity for RQ9 sweeps).
void BM_Normalize(benchmark::State& state) {
  graph::Graph g = MakeGraph(8000, 10.0);
  for (auto _ : state) {
    auto norm = sparse::NormalizeAdjacency(g.adj, 0.5);
    benchmark::DoNotOptimize(norm.nnz());
  }
}
BENCHMARK(BM_Normalize);

}  // namespace

BENCHMARK_MAIN();
