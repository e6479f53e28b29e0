// The traced run (--trace 1): per-layer metrics.
//
// Spans are recorded around calls into each layer's public functions from
// this file; nothing inside the library is instrumented. The replays call
// the layers in the trainers' order (models/trainer.cc):
//   FB: Mlp::Forward -> SpectralFilter::Forward(cache) -> Mlp::Forward ->
//       SoftmaxCrossEntropy -> Mlp::Backward -> SpectralFilter::Backward ->
//       Mlp::Backward -> AdamStep
//   MB: Precompute once; per batch GatherRows/MoveToDevice -> CombineTerms
//       -> Mlp::Forward -> SoftmaxCrossEntropy -> Mlp::Backward ->
//       BackwardCombine -> AdamStep
// Propagation is timed by a TimedSpmm on FilterContext::op, which delegates
// to CsrMatrix::SpMM (same bits). Allocations are counted through
// DeviceTracker's alloc hook, which always returns false.
//
// Every metric is reported on every workload: each traced run replays an
// FB and an MB epoch of the workload's graph and filter(s) and probes the
// serving layer on an MB checkpoint of its graph. Per-epoch nn.*, device.*
// and trace.* come from the workload's own scheme.
//
// Metric -> the end-to-end metric it should move (workloads where it
// matters most -> least):
//   parallel.dispatch_us.*           step_ms, cpu_s (fb_small_sweep,
//                                    mb_large -> fb_large)
//   ops.gemm_gmadds.*, ops.axpy_gbs.* step_ms, cpu_s (fb_large, mb_large ->
//                                    serve_open)
//   device.*, tensor.gather_ms       step_ms, peak_accel_mb (mb_large ->
//                                    fb_large)
//   sparse.*                         step_ms, cpu_s (fb_large); cpu_s
//                                    only (mb_large: one precompute per
//                                    call, which step_ms cancels); setup_s
//                                    (serve_open: precompute); none while
//                                    serving
//   graph.generate_ms                setup_s (all)
//   core.* (FB split, Fig. 2)        step_ms (fb_large, fb_small_sweep ->
//                                    serve_open)
//   core.precompute_ms               cpu_s (mb_large)
//   core.combine/backward_combine    step_ms, cpu_s (mb_large)
//   nn.*                             step_ms (mb_large, fb_large ->
//                                    fb_small_sweep)
//   opgraph.*                        cpu_s, peak_accel_mb once lazy is the
//                                    only path (fb_large -> others)
//   models.*                         cpu_s (all training; wall-clock view)
//   serve.*                          step_ms, cpu_s (serve_open ->
//                                    training: none)
//
// Reconciliation: the traced replay's epoch wall must be within
// kReconcileTolerance of the untraced train_ms_per_epoch measured in the
// same run; the difference is reported as tracing overhead, and the share
// of each epoch no child span covers as trace.unattributed_share.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>

#include "common.h"
#include "core/lazy.h"
#include "core/registry.h"
#include "nn/loss.h"
#include "runtime/supervisor.h"
#include "sparse/adjacency.h"
#include "tensor/device.h"
#include "tensor/ops.h"
#include "tensor/parallel.h"

namespace perfbench {

namespace {

using sgnn::Device;
using sgnn::DeviceTracker;
using sgnn::Matrix;
namespace filters = sgnn::filters;
namespace parallel = sgnn::parallel;

constexpr double kReconcileTolerance = 0.25;
// Rounds of untraced reference and traced replay per filter. With two, a
// one-epoch MB reference on pokec_sim (~200 ms) differed from its replay by
// up to 13% on an idle machine.
constexpr int kReconcileRounds = 3;
constexpr double kMb = 1024.0 * 1024.0;
constexpr int kHops = 10;

/// Propagation operator that times every hop and counts calls; the result
/// is CsrMatrix::SpMM's, bit for bit.
class TimedSpmm : public sgnn::opgraph::SpmmOperator {
 public:
  explicit TimedSpmm(const sgnn::sparse::CsrMatrix* prop) : prop_(prop) {}
  int64_t n() const override { return prop_->n(); }
  void Apply(const Matrix& x, Matrix* out) const override {
    Scope s("sparse.spmm");
    calls_.fetch_add(1, std::memory_order_relaxed);
    prop_->SpMM(x, out);
  }
  int64_t calls() const { return calls_.load(); }

 private:
  const sgnn::sparse::CsrMatrix* prop_;
  mutable std::atomic<int64_t> calls_{0};
};

/// Allocation counts from DeviceTracker's hook (may fire on pool threads).
struct AllocCounts {
  std::atomic<int64_t> accel{0};
  std::atomic<int64_t> accel_bytes{0};
  std::atomic<int64_t> host{0};
  void Reset() {
    accel = 0;
    accel_bytes = 0;
    host = 0;
  }
};
AllocCounts g_allocs;

/// Times `fn` `reps` times and returns the median wall in ms.
template <typename Fn>
double MedianMs(int reps, Fn&& fn) {
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) {
    const int64_t t0 = NowNs();
    fn();
    ms.push_back(MsSince(t0));
  }
  return Median(ms);
}

/// Sums of one replay's per-layer spans, per epoch unless noted.
struct Replay {
  double epoch_ms = 0.0;
  double unattributed_ms = 0.0;
  double fwd_ms = 0.0, bwd_ms = 0.0, prop_ms = 0.0, spmm_calls = 0.0;
  double mlp_fwd_ms = 0.0, mlp_bwd_ms = 0.0, adam_ms = 0.0, loss_ms = 0.0;
  double gather_ms = 0.0, combine_ms = 0.0, backward_combine_ms = 0.0;
  double precompute_ms = 0.0;  ///< once per replay
  double allocs = 0.0, accel_allocs = 0.0, accel_alloc_mb = 0.0;
  bool finite = true;

  void Add(const Replay& o) {
    epoch_ms += o.epoch_ms;
    unattributed_ms += o.unattributed_ms;
    fwd_ms += o.fwd_ms;
    bwd_ms += o.bwd_ms;
    prop_ms += o.prop_ms;
    spmm_calls += o.spmm_calls;
    mlp_fwd_ms += o.mlp_fwd_ms;
    mlp_bwd_ms += o.mlp_bwd_ms;
    adam_ms += o.adam_ms;
    loss_ms += o.loss_ms;
    gather_ms += o.gather_ms;
    combine_ms += o.combine_ms;
    backward_combine_ms += o.backward_combine_ms;
    precompute_ms += o.precompute_ms;
    accel_allocs += o.accel_allocs;
    accel_alloc_mb += o.accel_alloc_mb;
    allocs += o.allocs;
    finite = finite && o.finite;
  }
};

/// Folds one epoch (span `epoch`, wall `wall_ms`) into `r`, scaled by
/// 1/epochs.
void FoldEpoch(int32_t epoch, double wall_ms, int epochs, Replay* r) {
  const Tracer& t = Tracer::Get();
  const double k = 1.0 / epochs;
  r->epoch_ms += k * wall_ms;
  if (epoch < 0) return;
  r->unattributed_ms += k * (t.DurMs(epoch) - t.ChildMs(epoch));
  r->fwd_ms += k * t.TotalMs("core.fwd", epoch);
  r->bwd_ms += k * t.TotalMs("core.bwd", epoch);
  r->prop_ms += k * t.TotalMs("sparse.spmm", epoch);
  r->mlp_fwd_ms += k * t.TotalMs("nn.mlp_fwd", epoch);
  r->mlp_bwd_ms += k * t.TotalMs("nn.mlp_bwd", epoch);
  r->adam_ms += k * t.TotalMs("nn.adam", epoch);
  r->loss_ms += k * t.TotalMs("nn.loss", epoch);
  r->gather_ms += k * t.TotalMs("tensor.gather", epoch);
  r->combine_ms += k * t.TotalMs("core.combine", epoch);
  r->backward_combine_ms += k * t.TotalMs("core.backward_combine", epoch);
  r->accel_allocs += k * static_cast<double>(g_allocs.accel.load());
  r->accel_alloc_mb +=
      k * static_cast<double>(g_allocs.accel_bytes.load()) / kMb;
  r->allocs += k * static_cast<double>(g_allocs.accel.load() +
                                       g_allocs.host.load());
}

std::unique_ptr<filters::SpectralFilter> NewFilter(const std::string& name,
                                                   int64_t fi) {
  return filters::CreateFilter(name, kHops, {}, fi).MoveValue();
}

/// One FB training run of `epochs` epochs, mirroring TrainFullBatch.
Replay ReplayFullBatch(const Inputs& in, const std::string& name, int epochs,
                       uint64_t seed) {
  const sgnn::models::TrainConfig cfg;
  Replay r;
  sgnn::sparse::CsrMatrix norm =
      sgnn::sparse::NormalizeAdjacency(in.g.adj, 0.5);
  norm.MoveToDevice(Device::kAccel);
  TimedSpmm op(&norm);
  const Matrix x = in.g.features.CloneTo(Device::kAccel);
  const int64_t fi = in.g.features.cols();
  auto filter = NewFilter(name, fi);
  sgnn::Rng rng(seed * 0x2545F4914F6CDD1DULL + 7);
  filter->ResetParameters(&rng);
  sgnn::nn::Mlp phi0(1, fi, 64, 64, cfg.dropout, Device::kAccel);
  sgnn::nn::Mlp phi1(1, 64, 64, in.g.num_classes, cfg.dropout, Device::kAccel);
  phi0.Init(&rng);
  phi1.Init(&rng);
  filters::FilterContext ctx{&norm, Device::kAccel};
  ctx.op = &op;
  int64_t step = 0;
  for (int e = 0; e < epochs; ++e) {
    g_allocs.Reset();
    const int64_t calls0 = op.calls();
    int32_t epoch_span = -1;
    const int64_t epoch_start = NowNs();
    {
      Scope epoch("models.epoch", e);
      epoch_span = epoch.index();
      Matrix h0, hf, logits;
      {
        Scope s("nn.mlp_fwd");
        phi0.Forward(x, &h0, /*train=*/true, &rng);
      }
      {
        Scope s("core.fwd");
        filter->Forward(ctx, h0, &hf, /*cache=*/true);
      }
      {
        Scope s("nn.mlp_fwd");
        phi1.Forward(hf, &logits, /*train=*/true, &rng);
      }
      Matrix grad(logits.rows(), logits.cols(), Device::kAccel);
      double loss = 0.0;
      {
        Scope s("nn.loss");
        loss = sgnn::nn::SoftmaxCrossEntropy(logits, in.g.labels,
                                             in.splits.train, &grad);
      }
      r.finite = r.finite && std::isfinite(loss);
      phi0.ZeroGrad();
      phi1.ZeroGrad();
      filter->params().ZeroGrad();
      Matrix g_hf(hf.rows(), hf.cols(), Device::kAccel);
      Matrix g_h0;
      {
        Scope s("nn.mlp_bwd");
        phi1.Backward(grad, &g_hf);
      }
      {
        Scope s("core.bwd");
        filter->Backward(ctx, g_hf, &g_h0);
      }
      {
        Scope s("nn.mlp_bwd");
        phi0.Backward(g_h0, nullptr);
      }
      {
        Scope s("nn.adam");
        ++step;
        phi0.AdamStep(cfg.weights_opt, step);
        phi1.AdamStep(cfg.weights_opt, step);
        filter->params().AdamStep(cfg.filter_opt, step);
      }
      filter->ClearCache();
    }
    FoldEpoch(epoch_span, MsSince(epoch_start), epochs, &r);
    r.spmm_calls += static_cast<double>(op.calls() - calls0) / epochs;
  }
  return r;
}

/// Precompute plus `epochs` MB epochs, mirroring TrainMiniBatch.
Replay ReplayMiniBatch(const Inputs& in, const std::string& name, int epochs,
                       uint64_t seed) {
  const sgnn::models::TrainConfig cfg;
  Replay r;
  const int64_t fi = in.g.features.cols();
  auto filter = NewFilter(name, fi);
  if (!filter->SupportsMiniBatch()) return r;
  sgnn::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 13);
  filter->ResetParameters(&rng);
  std::vector<Matrix> terms;
  int32_t pre_span = -1;
  {
    Scope pre("core.precompute");
    pre_span = pre.index();
    sgnn::sparse::CsrMatrix norm;
    {
      Scope s("sparse.normalize");
      norm = sgnn::sparse::NormalizeAdjacency(in.g.adj, 0.5);
    }
    TimedSpmm op(&norm);
    filters::FilterContext ctx{&norm, Device::kHost};
    ctx.op = &op;
    if (!filter->Precompute(ctx, in.g.features, &terms).ok()) {
      r.finite = false;
      return r;
    }
  }
  if (pre_span >= 0) r.precompute_ms = Tracer::Get().DurMs(pre_span);
  sgnn::nn::Mlp phi1(2, fi, 64, in.g.num_classes, cfg.dropout, Device::kAccel);
  phi1.Init(&rng);
  std::vector<int32_t> train_idx = in.splits.train;
  int64_t step = 0;
  for (int e = 0; e < epochs; ++e) {
    g_allocs.Reset();
    int32_t epoch_span = -1;
    const int64_t epoch_start = NowNs();
    {
      Scope epoch("models.epoch", e);
      epoch_span = epoch.index();
      for (size_t i = train_idx.size(); i > 1; --i) {
        const auto j = static_cast<size_t>(rng.UniformInt(i));
        std::swap(train_idx[i - 1], train_idx[j]);
      }
      for (size_t start = 0; start < train_idx.size(); start += 4096) {
        const size_t end = std::min(train_idx.size(), start + 4096);
        const std::vector<int32_t> batch(
            train_idx.begin() + static_cast<long>(start),
            train_idx.begin() + static_cast<long>(end));
        std::vector<Matrix> hold(terms.size());
        std::vector<const Matrix*> ptrs;
        {
          Scope s("tensor.gather");
          parallel::ParallelFor(
              0, static_cast<int64_t>(terms.size()), 1,
              [&](int64_t lo, int64_t hi) {
                for (int64_t t = lo; t < hi; ++t) {
                  hold[static_cast<size_t>(t)] =
                      terms[static_cast<size_t>(t)].GatherRows(batch);
                }
              });
          for (auto& m : hold) m.MoveToDevice(Device::kAccel);
        }
        for (const auto& m : hold) ptrs.push_back(&m);
        Matrix h, logits;
        {
          Scope s("core.combine");
          filter->CombineTerms(ptrs, &h, /*cache=*/true);
        }
        {
          Scope s("nn.mlp_fwd");
          phi1.Forward(h, &logits, /*train=*/true, &rng);
        }
        std::vector<int32_t> labels(batch.size());
        for (size_t i = 0; i < batch.size(); ++i) {
          labels[i] = in.g.labels[static_cast<size_t>(batch[i])];
        }
        Matrix grad(logits.rows(), logits.cols(), Device::kAccel);
        double loss = 0.0;
        {
          Scope s("nn.loss");
          loss = sgnn::nn::SoftmaxCrossEntropy(logits, labels, {}, &grad);
        }
        r.finite = r.finite && std::isfinite(loss);
        phi1.ZeroGrad();
        filter->params().ZeroGrad();
        Matrix g_h(h.rows(), h.cols(), Device::kAccel);
        {
          Scope s("nn.mlp_bwd");
          phi1.Backward(grad, &g_h);
        }
        {
          Scope s("core.backward_combine");
          filter->BackwardCombine(ptrs, g_h);
        }
        {
          Scope s("nn.adam");
          ++step;
          phi1.AdamStep(cfg.weights_opt, step);
          filter->params().AdamStep(cfg.filter_opt, step);
        }
      }
    }
    FoldEpoch(epoch_span, MsSince(epoch_start), epochs, &r);
  }
  return r;
}

/// Kernel probes of tensor/parallel and tensor/ops at `threads`.
void ProbeKernels(int threads, const std::string& tag, Result* out) {
  parallel::SetNumThreads(threads);
  // Dispatch: a 2-chunk ParallelFor with an empty body, 200 calls a sample.
  std::vector<double> us;
  for (int s = 0; s < 25; ++s) {
    Scope span("parallel.dispatch");
    const int64_t t0 = NowNs();
    for (int i = 0; i < 200; ++i) {
      parallel::ParallelFor(0, 2, 1, [](int64_t, int64_t) {});
    }
    us.push_back(MsSince(t0) * 1e3 / 200.0);
  }
  out->Set("parallel.dispatch_us." + tag, Median(us), "us");

  sgnn::Rng rng(11);
  const auto gemm = [&](int64_t rows, const std::string& shape, int reps) {
    Matrix a(rows, 32), b(32, 64), c(rows, 64);
    a.FillUniform(&rng, -1.0f, 1.0f);
    b.FillUniform(&rng, -1.0f, 1.0f);
    const double ms = MedianMs(reps, [&] {
      Scope span("ops.gemm");
      sgnn::ops::Gemm(a, b, &c);
    });
    const double madds = static_cast<double>(rows) * 32.0 * 64.0;
    out->Set("ops.gemm_gmadds." + shape + "." + tag, madds / (ms * 1e6),
             "Gmadd/s");
  };
  gemm(80000, "fb", 5);
  gemm(4096, "mb", 40);

  // Axpy over 80000x64: reads x and y, writes y (computed bytes).
  Matrix x(80000, 64), y(80000, 64);
  x.FillUniform(&rng, -1.0f, 1.0f);
  y.FillUniform(&rng, -1.0f, 1.0f);
  const double ms = MedianMs(9, [&] {
    Scope span("ops.axpy");
    sgnn::ops::Axpy(0.5f, x, &y);
  });
  out->Set("ops.axpy_gbs." + tag,
           3.0 * static_cast<double>(x.bytes()) / (ms * 1e6), "GB/s");
}

/// SpMM probe on the workload's graph at F=64 (the FB hidden width).
void ProbeSparse(const Inputs& in, int nthreads, Result* out) {
  sgnn::sparse::CsrMatrix norm;
  const double norm_ms = MedianMs(3, [&] {
    Scope span("sparse.normalize");
    norm = sgnn::sparse::NormalizeAdjacency(in.g.adj, 0.5);
  });
  out->Set("sparse.normalize_ms", norm_ms, "ms");
  const int64_t n = norm.n(), nnz = norm.nnz(), f = 64;
  sgnn::Rng rng(5);
  Matrix x(n, f), y(n, f);
  x.FillUniform(&rng, -1.0f, 1.0f);
  const double flops = 2.0 * static_cast<double>(nnz) * f;
  // Compulsory traffic computed from shapes: CSR arrays, x and y once.
  const double bytes = static_cast<double>(n + 1) * 8 +
                       static_cast<double>(nnz) * 8 +
                       2.0 * static_cast<double>(n * f) * 4;
  for (const int threads : {1, nthreads}) {
    parallel::SetNumThreads(threads);
    const double ms = MedianMs(7, [&] {
      Scope span("sparse.spmm");
      norm.SpMM(x, &y);
    });
    const std::string tag = threads == 1 ? "t1" : "tN";
    out->Set("sparse.spmm_ms." + tag, ms, "ms");
    if (threads == nthreads) {
      out->Set("sparse.spmm_gflops.tN", flops / (ms * 1e6), "GFLOP/s");
    }
  }
  out->Set("sparse.spmm_flop_per_byte", flops / bytes, "flop/B");
}

/// Eager vs lazy no-cache inference of the lazy-capable filters.
void ProbeOpgraph(const Inputs& in, const std::vector<std::string>& names,
                  Result* out) {
  sgnn::sparse::CsrMatrix norm =
      sgnn::sparse::NormalizeAdjacency(in.g.adj, 0.5);
  norm.MoveToDevice(Device::kAccel);
  filters::FilterContext ctx{&norm, Device::kAccel};
  sgnn::Rng rng(3);
  Matrix h0(in.g.n, 64, Device::kAccel);
  h0.FillUniform(&rng, -1.0f, 1.0f);
  double eager = 0.0, lazy = 0.0, peak = 0.0;
  for (const std::string& name : names) {
    auto filter = NewFilter(name, in.g.features.cols());
    if (!filter->SupportsLazy()) continue;
    filter->ResetParameters(&rng);
    Matrix y_eager, y_lazy;
    eager += MedianMs(3, [&] {
      Scope span("core.eager_infer");
      filter->Forward(ctx, h0, &y_eager, /*cache=*/false);
    });
    sgnn::opgraph::PipelineStats stats;
    bool ok = true;
    lazy += MedianMs(3, [&] {
      Scope span("opgraph.lazy_infer");
      ok = filters::LazyForward(filter.get(), ctx, h0, &y_lazy, &stats).ok() &&
           ok;
    });
    peak = std::max(peak, static_cast<double>(stats.planned_peak_bytes) / kMb);
    if (!ok || y_eager.size() != y_lazy.size() ||
        std::memcmp(y_eager.data(), y_lazy.data(), y_eager.bytes()) != 0) {
      out->Fail("opgraph: lazy inference of " + name +
                " is not bit-identical to eager");
    }
  }
  out->Set("core.eager_infer_ms", eager, "ms");
  out->Set("opgraph.lazy_infer_ms", lazy, "ms");
  out->Set("opgraph.planned_peak_mb", peak, "MB");
}

/// Serving-layer probe on an MB checkpoint of the workload's graph.
void ProbeServe(const Options& opt, const Inputs& in, const std::string& name,
                int epochs, int threads, Result* out) {
  auto sv = TrainCheckpoint(in, name, epochs, opt.seed,
                            opt.out_dir + "/trace_probe.ckpt");
  if (!sv.ok()) {
    out->Fail("serve probe checkpoint: " + sv.status().ToString());
    return;
  }
  out->Set("serve.ckpt_load_ms", sv.value().load_ms, "ms");
  auto model = sgnn::serve::RestoreModel(sv.value().ckpt);
  if (!model.ok()) {
    out->Fail("serve probe restore: " + model.status().ToString());
    return;
  }
  parallel::SetNumThreads(std::max(1, threads - 1));
  sgnn::serve::EngineConfig cfg = ServeConfig();
  sgnn::serve::Engine engine(model.MoveValue(), cfg);
  engine.Start();

  BenchRng rng(opt.seed + 1000);
  const std::vector<int64_t> hot = MakeHotSet(in.g.n, &rng);
  std::vector<int64_t> nodes;
  for (const Query& q : MakeSchedule(in.g.n, hot, 2000.0, 0.2, &rng)) {
    nodes.push_back(q.node);
  }
  Matrix logits;
  bool served = true;
  const double b1 = MedianMs(200, [&] {
    Scope span("serve.batch");
    const int64_t node = nodes[rng.Below(nodes.size())];
    served = engine.ServeBatch({node}, &logits).ok() && served;
  });
  const double bmax = MedianMs(100, [&] {
    std::vector<int64_t> batch(static_cast<size_t>(cfg.max_batch));
    for (auto& v : batch) v = nodes[rng.Below(nodes.size())];
    Scope span("serve.batch");
    served = engine.ServeBatch(batch, &logits).ok() && served;
  });
  if (!served) out->Fail("serve probe: synchronous ServeBatch failed");
  out->Set("serve.service_ms.b1", b1, "ms");
  out->Set("serve.service_ms.bmax", bmax, "ms");

  // Per-query spans are kept for the low and high phases only.
  Tracer& tracer = Tracer::Get();
  std::map<int64_t, std::vector<float>> reference;
  tracer.set_enabled(false);
  (void)RunPhase(&engine, MakeSchedule(in.g.n, hot, 2000.0, 0.25, &rng),
                 &reference, "warm");
  tracer.set_enabled(true);
  const Phase low =
      RunPhase(&engine, MakeSchedule(in.g.n, hot, 2000.0, 1.0, &rng),
               &reference, "low");
  const Phase high =
      RunPhase(&engine, MakeSchedule(in.g.n, hot, 20000.0, 1.0, &rng),
               &reference, "high");
  int64_t failed = low.failed + high.failed;
  out->Set("serve.mean_batch.low", low.mean_batch, "count");
  out->Set("serve.mean_batch.high", high.mean_batch, "count");
  out->Set("serve.cache_hit_rate.high",
           high.lookups == 0 ? 0.0
                             : static_cast<double>(high.hits) / high.lookups,
           "ratio");
  out->Set("serve.cache_lookups.high", static_cast<double>(high.lookups),
           "count");
  out->Set("serve.p50_ms.low", Quantile(low.latency_ms, 0.5), "ms");
  out->Set("serve.p99_ms.low", Quantile(low.latency_ms, 0.99), "ms");
  out->Set("serve.p50_ms.high", Quantile(high.latency_ms, 0.5), "ms");
  out->Set("serve.p99_ms.high", Quantile(high.latency_ms, 0.99), "ms");
  double late99 = std::max(Quantile(low.late_ms, 0.99),
                           Quantile(high.late_ms, 0.99));

  // Highest rate meeting p99 <= kP99LimitMs with no failures, no growing
  // backlog and a generator on time: geometric bisection over [2k, 200k].
  tracer.set_enabled(false);
  double lo = 2000.0, hi = 200000.0;
  for (int it = 0; it < 7; ++it) {
    const double mid = std::sqrt(lo * hi);
    const Phase p =
        RunPhase(&engine, MakeSchedule(in.g.n, hot, mid, 0.3, &rng),
                 &reference, "search");
    failed += p.failed;
    const bool pass = p.failed == 0 && !p.backlog &&
                      Quantile(p.latency_ms, 0.99) <= kP99LimitMs &&
                      Quantile(p.late_ms, 0.99) <= kLateLimitMs;
    (pass ? lo : hi) = mid;
  }
  tracer.set_enabled(true);
  out->Set("serve.max_qps", lo, "1/s");
  out->Set("serve.gen_late_ms.p99", late99, "ms");
  engine.Stop();
  if (failed > 0) {
    out->Fail("serve probe: " + std::to_string(failed) +
              " replies failed or differed from a singleton ServeBatch");
  }
  parallel::SetNumThreads(threads);
}

}  // namespace

void RunTraced(const Options& opt, const WorkloadSpec& w, Result* result) {
  Tracer& tracer = Tracer::Get();
  tracer.set_enabled(true);
  const int threads = opt.threads;

  Inputs in;
  int32_t generate = -1;
  {
    Scope span("graph.generate");
    generate = span.index();
    in = MakeInputs(w.dataset, opt.seed);
  }
  result->Set("graph.generate_ms", tracer.DurMs(generate), "ms");
  CheckFingerprint(opt, w.dataset + "/" + std::to_string(opt.seed),
                   GraphFingerprint(in.g, in.splits), result);

  ProbeKernels(1, "t1", result);
  ProbeKernels(threads, "tN", result);
  parallel::SetNumThreads(threads);
  ProbeSparse(in, threads, result);
  parallel::SetNumThreads(threads);
  ProbeOpgraph(in, w.filters, result);

  // Untraced reference: the workload's own training call per filter, as in
  // the end-to-end run, with the tracer off. Reference and own-scheme replay
  // alternate kReconcileRounds times per filter and each side keeps its
  // faster sample: host
  // interference on a virtual machine only ever adds time, and it drifts
  // over seconds, so alternating keeps both sides under the same load.
  sgnn::runtime::Supervisor sup("perfbench-trace", "");
  sgnn::runtime::RunOptions options;
  options.hops = kHops;
  const sgnn::models::TrainConfig cfg = RunConfig(w, opt.seed);
  struct Reference {
    double epoch_ms = 0.0, wall_ms = 0.0, answer_ms = 0.0, untimed_ms = 0.0,
           acc = 0.0;
  };
  const auto reference = [&](const std::string& f) {
    tracer.set_enabled(false);
    const int64_t t0 = NowNs();
    const auto rec = sup.RunTraining(
        sgnn::runtime::CellKey{w.dataset, f, w.scheme,
                               static_cast<int>(opt.seed)},
        in.g, in.splits, in.spec.metric, cfg, options);
    const double wall = MsSince(t0);
    tracer.set_enabled(true);
    ++result->attempted;
    if (!rec.ok() || rec.fell_back) {
      ++result->failed;
      result->Fail(w.name + "/" + f + ": untraced reference cell failed");
    }
    Reference ref;
    ref.epoch_ms = rec.stats.train_ms_per_epoch;
    ref.wall_ms = wall;
    ref.answer_ms = rec.stats.precompute_ms + rec.stats.infer_ms;
    ref.untimed_ms = wall - (rec.stats.precompute_ms +
                             cfg.epochs * rec.stats.train_ms_per_epoch +
                             rec.stats.infer_ms);
    ref.acc = rec.test_metric * 100.0 / static_cast<double>(w.filters.size());
    return ref;
  };

  // Replays: the workload's own scheme with its epoch count, the other
  // scheme for one epoch.
  const bool own_fb = w.scheme == "fb";
  const auto replay = [&](bool full_batch, const std::string& f) {
    DeviceTracker::Global().SetAllocFaultHook([](Device d, size_t bytes) {
      if (d == Device::kAccel) {
        g_allocs.accel.fetch_add(1, std::memory_order_relaxed);
        g_allocs.accel_bytes.fetch_add(static_cast<int64_t>(bytes),
                                       std::memory_order_relaxed);
      } else {
        g_allocs.host.fetch_add(1, std::memory_order_relaxed);
      }
      return false;
    });
    const int epochs = full_batch == own_fb ? w.epochs : 1;
    Replay r = full_batch ? ReplayFullBatch(in, f, epochs, opt.seed)
                          : ReplayMiniBatch(in, f, epochs, opt.seed);
    DeviceTracker::Global().SetAllocFaultHook(nullptr);
    return r;
  };
  Replay fb, mb;
  Reference ref;
  for (const std::string& f : w.filters) {
    Reference r1 = reference(f);
    Replay own1 = replay(own_fb, f);
    for (int round = 1; round < kReconcileRounds; ++round) {
      const Reference r2 = reference(f);
      const Replay own2 = replay(own_fb, f);
      if (r2.epoch_ms < r1.epoch_ms) r1 = r2;
      if (own2.epoch_ms < own1.epoch_ms) own1 = own2;
    }
    ref.epoch_ms += r1.epoch_ms;
    ref.wall_ms += r1.wall_ms;
    ref.answer_ms += r1.answer_ms;
    ref.untimed_ms += r1.untimed_ms;
    ref.acc += r1.acc;
    (own_fb ? fb : mb).Add(own1);
    (own_fb ? mb : fb).Add(replay(!own_fb, f));
  }
  const Replay& own = own_fb ? fb : mb;
  const double untraced_epoch = ref.epoch_ms;
  result->Set("models.run_wall_ms", ref.wall_ms, "ms");
  result->Set("models.train_epoch_ms", ref.epoch_ms, "ms");
  result->Set("models.answer_wall_ms", ref.answer_ms, "ms");
  result->Set("models.untimed_ms", ref.untimed_ms, "ms");
  result->Set("models.test_acc", ref.acc, "%");
  if (!fb.finite || !mb.finite) result->Fail("replay: non-finite loss");
  result->Set("core.fwd_ms", fb.fwd_ms, "ms");
  result->Set("core.bwd_ms", fb.bwd_ms, "ms");
  result->Set("core.prop_ms", fb.prop_ms, "ms");
  result->Set("core.self_ms", fb.fwd_ms + fb.bwd_ms - fb.prop_ms, "ms");
  result->Set("core.spmm_calls", fb.spmm_calls, "count");
  result->Set("core.prop_share", fb.prop_ms / fb.epoch_ms, "ratio");
  result->Set("core.precompute_ms", mb.precompute_ms, "ms");
  result->Set("core.combine_ms", mb.combine_ms, "ms");
  result->Set("core.backward_combine_ms", mb.backward_combine_ms, "ms");
  result->Set("tensor.gather_ms", mb.gather_ms, "ms");
  result->Set("nn.mlp_fwd_ms", own.mlp_fwd_ms, "ms");
  result->Set("nn.mlp_bwd_ms", own.mlp_bwd_ms, "ms");
  result->Set("nn.adam_ms", own.adam_ms, "ms");
  result->Set("nn.loss_ms", own.loss_ms, "ms");
  result->Set("device.accel_allocs", own.accel_allocs, "count");
  result->Set("device.accel_alloc_mb", own.accel_alloc_mb, "MB");
  result->Set("device.allocs", own.allocs, "count");

  const std::string probe_filter =
      w.serving || !own_fb ? w.filters.front() : "chebyshev";
  ProbeServe(opt, in, probe_filter, w.serving ? w.epochs : 1, threads, result);
  ++result->attempted;

  const double overhead = own.epoch_ms / untraced_epoch - 1.0;
  result->Set("trace.epoch_ms", own.epoch_ms, "ms");
  result->Set("trace.untraced_epoch_ms", untraced_epoch, "ms");
  result->Set("trace.overhead_pct", 100.0 * overhead, "%");
  result->Set("trace.unattributed_share", own.unattributed_ms / own.epoch_ms,
              "ratio");
  result->Set("trace.spans", static_cast<double>(tracer.spans().size()),
              "count");
  std::printf("trace: replayed epoch %.2f ms vs untraced %.2f ms (%+.1f%%, "
              "tolerance %.0f%%), unattributed %.1f%%\n",
              own.epoch_ms, untraced_epoch, 100.0 * overhead,
              100.0 * kReconcileTolerance,
              100.0 * own.unattributed_ms / own.epoch_ms);
  if (std::fabs(overhead) > kReconcileTolerance) {
    result->Fail("trace: replayed epoch does not reconcile with the untraced "
                 "train_ms_per_epoch");
  }
  const std::string path = opt.out_dir + "/trace_" + w.name + "_" +
                           std::to_string(opt.seed) + ".json";
  if (!tracer.WriteChromeJson(path)) {
    result->Fail("trace: cannot write " + path);
  } else {
    std::printf("trace: %zu spans written to %s\n", tracer.spans().size(),
                path.c_str());
  }
}

}  // namespace perfbench
