// End-to-end (untraced) runs of the four workloads.
//
// Every end-to-end metric is reported on every workload, so each name has
// a training reading and a serving reading (table in main.cc).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>

#include "common.h"
#include "runtime/supervisor.h"
#include "tensor/device.h"
#include "tensor/parallel.h"

namespace perfbench {

namespace {

using sgnn::DeviceTracker;
using sgnn::Device;

// Set-up runs at least kSetups times and, when it is cheap, repeats until
// it has taken kSetupWallMs (at most kMaxSetups times): a 10 ms set-up read
// once moves by half from run to run.
constexpr int kSetups = 3;
constexpr int kMaxSetups = 25;
constexpr double kSetupWallMs = 1000.0;
constexpr int kMaxReps = 40;
// Epochs of the shorter training call that step_ms is differenced against.
constexpr int kShortEpochs = 1;
constexpr double kMb = 1024.0 * 1024.0;
// The CPU cost of one burst switches between two levels ~30% apart from
// one burst to the next (how the dispatcher's batches interleave with the
// submitting thread). A median of 25 bursts fell between the levels and
// moved by 8% of itself from run to run, so cpu_s is the mean over many
// short bursts.
constexpr int kBursts = 40;

/// Starts the kernel pool so its thread creation is set-up, not run time.
void WarmPool() {
  std::vector<int64_t> sink(64, 0);
  sgnn::parallel::ParallelFor(0, 64, 1, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) sink[static_cast<size_t>(i)] = i;
  });
}

void RunTraining(const Options& opt, const WorkloadSpec& w, Result* result) {
  std::vector<double> setup_s;
  Inputs in;
  const int64_t setup_start = NowNs();
  for (int k = 0; k < kMaxSetups; ++k) {
    if (k >= kSetups && MsSince(setup_start) >= kSetupWallMs) break;
    const Timer t;
    Inputs cur = MakeInputs(w.dataset, opt.seed);
    WarmPool();
    setup_s.push_back(t.cpu_ms() / 1e3);
    in = std::move(cur);
  }
  CheckFingerprint(opt, w.dataset + "/" + std::to_string(opt.seed),
                   GraphFingerprint(in.g, in.splits), result);

  sgnn::runtime::Supervisor sup("perfbench", "");
  sgnn::runtime::RunOptions options;
  options.hops = 10;
  const sgnn::models::TrainConfig cfg = RunConfig(w, opt.seed);
  sgnn::models::TrainConfig cfg_short = cfg;
  cfg_short.epochs = kShortEpochs;
  const int extra_epochs = w.epochs - kShortEpochs;

  // One supervised training call; returns its record and CPU time (ms).
  const auto train = [&](const std::string& f,
                         const sgnn::models::TrainConfig& c, double* cpu_ms) {
    sgnn::runtime::CellKey key{w.dataset, f, w.scheme,
                               static_cast<int>(opt.seed)};
    const Timer t;
    sgnn::runtime::CellRecord rec =
        sup.RunTraining(key, in.g, in.splits, in.spec.metric, c, options);
    *cpu_ms = t.cpu_ms();
    ++result->attempted;
    if (!rec.ok() || rec.fell_back || !std::isfinite(rec.train_loss)) {
      ++result->failed;
      result->Fail(w.name + "/" + f + ": cell " +
                   sgnn::runtime::CellStatusName(rec.status) +
                   (rec.fell_back ? " (fell back fb->mb)" : "") + " " +
                   rec.detail);
    }
    return rec;
  };

  // Per repetition, every filter is trained twice from the same seed: for
  // kShortEpochs and for w.epochs. Both counts are at most eval_every, so
  // each call validates once, at its last epoch; the CPU difference per
  // extra epoch is then epoch CPU alone, with precompute, validation,
  // inference and per-call set-up cancelled out. The final training loss,
  // summed over the filters, must be lower after w.epochs than after
  // kShortEpochs: summed, because fagnn's alone fell by as little as 0.2%
  // over seeds 1-12 (the sweep's sum by at least 27%).
  std::vector<double> cpu_s, epoch_ms, wall_epoch_ms, accel_mb, ram_mb, acc;
  const int64_t start = NowNs();
  for (int rep = 0; rep < kMaxReps; ++rep) {
    if (rep >= w.min_reps && MsSince(start) >= opt.seconds * 1e3) break;
    double cpu = 0.0, epoch = 0.0, wall_epoch = 0.0, peak_a = 0.0,
           peak_r = 0.0, acc_sum = 0.0, short_loss = 0.0, long_loss = 0.0;
    for (const std::string& f : w.filters) {
      double short_cpu = 0.0, long_cpu = 0.0;
      const sgnn::runtime::CellRecord first = train(f, cfg_short, &short_cpu);
      const sgnn::runtime::CellRecord rec = train(f, cfg, &long_cpu);
      short_loss += first.train_loss;
      long_loss += rec.train_loss;
      cpu += long_cpu;
      epoch += (long_cpu - short_cpu) / extra_epochs;
      wall_epoch += rec.stats.train_ms_per_epoch;
      peak_a = std::max(peak_a,
                        static_cast<double>(rec.stats.peak_accel_bytes));
      peak_r =
          std::max(peak_r, static_cast<double>(rec.stats.peak_ram_bytes));
      acc_sum += rec.test_metric * 100.0;
    }
    if (rep == 0) {
      std::printf("%s: training loss %.5f after %d epochs, %.5f after %d\n",
                  w.name.c_str(), short_loss, kShortEpochs, long_loss,
                  w.epochs);
      if (!(long_loss < short_loss)) {
        result->Fail(w.name + ": training loss did not fall over epochs " +
                     std::to_string(kShortEpochs) + " to " +
                     std::to_string(w.epochs));
      }
    }
    cpu_s.push_back(cpu / 1e3);
    epoch_ms.push_back(epoch);
    wall_epoch_ms.push_back(wall_epoch);
    accel_mb.push_back(peak_a / kMb);
    ram_mb.push_back(peak_r / kMb);
    acc.push_back(acc_sum / static_cast<double>(w.filters.size()));
  }
  const double acc_med = Median(acc);
  if (acc_med < w.acc_floor) {
    result->Fail(w.name + ": test accuracy " + std::to_string(acc_med) +
                 "% is below the recorded floor " +
                 std::to_string(w.acc_floor) + "%");
  }
  std::printf("%s: %zu repetitions; CPU %.3f s a repetition, epoch %.2f "
              "CPU-ms (wall %.2f ms), test acc %.2f%%\n",
              w.name.c_str(), cpu_s.size(), Median(cpu_s), Median(epoch_ms),
              Median(wall_epoch_ms), acc_med);
  std::printf("%s: epoch CPU-ms by repetition:", w.name.c_str());
  for (const double e : epoch_ms) std::printf(" %.1f", e);
  std::printf("\n");
  result->Set("setup_s", Median(setup_s), "s");
  result->Set("cpu_s", Median(cpu_s), "s");
  result->Set("step_ms", Median(epoch_ms), "ms");
  result->Set("peak_accel_mb", Median(accel_mb), "MB");
  result->Set("peak_ram_mb", Median(ram_mb), "MB");
}

/// Submits `nodes` all at once and waits for every reply; returns the CPU
/// time (ms) the process spent answering them, counting wrong or failed
/// replies into `failed`.
double Burst(sgnn::serve::Engine* engine, const std::vector<int64_t>& nodes,
             std::map<int64_t, std::vector<float>>* reference,
             int64_t* failed) {
  std::vector<std::future<sgnn::serve::QueryResult>> futures;
  futures.reserve(nodes.size());
  const Timer t;
  for (const int64_t v : nodes) futures.push_back(engine->Submit(v));
  std::vector<sgnn::serve::QueryResult> replies;
  replies.reserve(nodes.size());
  for (auto& f : futures) replies.push_back(f.get());
  const double cpu = t.cpu_ms();
  for (size_t i = 0; i < nodes.size(); ++i) {
    if (!replies[i].status.ok() ||
        !SameBits(ReferenceRow(engine, nodes[i], reference),
                  replies[i].logits)) {
      ++*failed;
    }
  }
  return cpu;
}

/// Runs one open-loop phase. A run whose generator fell behind (p99
/// lateness over kLateLimitMs) is invalid: it is discarded and the same
/// schedule runs again, up to kPhaseAttempts times in all, and the run
/// fails only when every attempt is invalid. A stall of the virtual
/// machine of ~50 ms, which a host under load gives now and then, makes
/// one phase invalid on its own. Every attempt's replies are checked and
/// counted in `attempted`/`failed`.
Phase ValidPhase(sgnn::serve::Engine* engine,
                 const std::vector<Query>& schedule,
                 std::map<int64_t, std::vector<float>>* reference,
                 const std::string& label, Result* result) {
  for (int attempt = 1;; ++attempt) {
    Phase p = RunPhase(engine, schedule, reference, label);
    result->attempted += p.offered;
    result->failed += p.failed;
    const double late99 = Quantile(p.late_ms, 0.99);
    std::printf("generator lateness (%s, attempt %d): p50 %.3f ms, p99 %.3f "
                "ms, max %.3f ms over %zu queries\n",
                label.c_str(), attempt, Quantile(p.late_ms, 0.5), late99,
                Quantile(p.late_ms, 1.0), p.late_ms.size());
    if (late99 <= kLateLimitMs) return p;
    if (attempt == kPhaseAttempts) {
      result->Fail("serve_open: generator p99 lateness " +
                   std::to_string(late99) + " ms exceeds the " +
                   std::to_string(kLateLimitMs) + " ms limit in all " +
                   std::to_string(kPhaseAttempts) + " attempts of the " +
                   label + " phase");
      return p;
    }
    std::fprintf(stderr,
                 "serve_open: %s phase invalid (generator p99 lateness %.3f "
                 "ms > %.0f ms); running it again\n",
                 label.c_str(), late99, kLateLimitMs);
  }
}

void RunServing(const Options& opt, const WorkloadSpec& w, Result* result) {
  std::vector<double> setup_s;
  Inputs in;
  std::unique_ptr<sgnn::serve::Engine> engine;
  double train_acc = 0.0;
  const std::string path = opt.out_dir + "/serve_open.ckpt";
  for (int k = 0; k < kSetups; ++k) {
    engine.reset();
    const Timer t;
    Inputs cur = MakeInputs(w.dataset, opt.seed);
    WarmPool();
    auto sv = TrainCheckpoint(cur, w.filters.front(), w.epochs, opt.seed, path);
    if (!sv.ok()) {
      result->Fail("serve_open checkpoint: " + sv.status().ToString());
      return;
    }
    auto model = sgnn::serve::RestoreModel(sv.value().ckpt);
    if (!model.ok()) {
      result->Fail("serve_open restore: " + model.status().ToString());
      return;
    }
    engine = std::make_unique<sgnn::serve::Engine>(model.MoveValue(),
                                                   ServeConfig());
    engine->Start();
    setup_s.push_back(t.cpu_ms() / 1e3);
    train_acc = sv.value().train_acc;
    in = std::move(cur);
  }
  CheckFingerprint(opt, w.dataset + "/" + std::to_string(opt.seed),
                   GraphFingerprint(in.g, in.splits), result);

  const Traffic tr = MakeTraffic(in.g.n, opt.seed, opt.seconds);
  CheckFingerprint(opt, TrafficKey(opt.seed, opt.seconds), tr.fingerprint,
                   result);
  const std::vector<Query>& warm = tr.warm;
  const std::vector<Query>& low = tr.low;
  const std::vector<Query>& high = tr.high;
  const std::vector<int64_t>& burst = tr.burst;

  std::map<int64_t, std::vector<float>> reference;
  (void)RunPhase(engine.get(), warm, &reference, "warm");
  DeviceTracker::Global().ResetPeak();
  const int64_t failed0 = result->failed;
  const Phase pl = ValidPhase(engine.get(), low, &reference, "low", result);
  const Phase ph = ValidPhase(engine.get(), high, &reference, "high", result);
  std::vector<double> burst_s;
  int64_t burst_failed = 0;
  for (int rep = 0; rep < kBursts; ++rep) {
    burst_s.push_back(Burst(engine.get(), burst, &reference, &burst_failed) /
                      1e3);
  }
  const double peak_a =
      static_cast<double>(DeviceTracker::Global().peak_bytes(Device::kAccel));
  const double peak_r =
      static_cast<double>(DeviceTracker::Global().peak_bytes(Device::kHost));

  result->attempted += kBursts * static_cast<int64_t>(burst.size());
  result->failed += burst_failed;
  if (result->failed > failed0) {
    result->Fail("serve_open: " + std::to_string(result->failed - failed0) +
                 " queries shed, failed or not bit-identical to a singleton "
                 "ServeBatch");
  }
  auto acc = ServedAccuracy(engine.get(), in);
  if (!acc.ok()) {
    result->Fail("serve_open accuracy: " + acc.status().ToString());
    return;
  }
  // The exporting run validated once, at its last epoch, on the exported
  // model: serving must classify as many test nodes correctly as it did.
  const auto test_nodes = static_cast<double>(in.splits.test.size());
  if (std::lround(acc.value() * test_nodes / 100.0) !=
      std::lround(train_acc * test_nodes / 100.0)) {
    result->Fail("serve_open: served accuracy " + std::to_string(acc.value()) +
                 "% differs from the exporting run's " +
                 std::to_string(train_acc) + "%");
  }
  if (acc.value() < w.acc_floor) {
    result->Fail("serve_open: served accuracy " +
                 std::to_string(acc.value()) + "% is below the floor " +
                 std::to_string(w.acc_floor) + "%");
  }
  engine->Stop();
  std::printf(
      "serve_open: low %lld queries p50 %.3f ms p99 %.3f ms (p%.2f %.3f ms), "
      "batch %.2f; high %lld queries p50 %.3f ms p99 %.3f ms (p%.2f %.3f "
      "ms), batch %.2f, hit %.3f of %llu lookups; burst of %zu: %.1f "
      "CPU-ms; served accuracy %.2f%% (exporting run %.2f%%)\n",
      static_cast<long long>(pl.latency_ms.size()),
      Quantile(pl.latency_ms, 0.5), Quantile(pl.latency_ms, 0.99),
      TopSupportedPercentile(pl.latency_ms.size()),
      Quantile(pl.latency_ms, TopSupportedPercentile(pl.latency_ms.size()) / 100),
      pl.mean_batch, static_cast<long long>(ph.latency_ms.size()),
      Quantile(ph.latency_ms, 0.5), Quantile(ph.latency_ms, 0.99),
      TopSupportedPercentile(ph.latency_ms.size()),
      Quantile(ph.latency_ms, TopSupportedPercentile(ph.latency_ms.size()) / 100),
      ph.mean_batch,
      ph.lookups == 0 ? 0.0
                      : static_cast<double>(ph.hits) /
                            static_cast<double>(ph.lookups),
      static_cast<unsigned long long>(ph.lookups), burst.size(),
      Mean(burst_s) * 1e3, acc.value(), train_acc);

  result->Set("setup_s", Median(setup_s), "s");
  result->Set("cpu_s", Mean(burst_s), "s");
  result->Set("step_ms", Quantile(pl.latency_ms, 0.5), "ms");
  result->Set("peak_accel_mb", peak_a / kMb, "MB");
  result->Set("peak_ram_mb", peak_r / kMb, "MB");
}

}  // namespace

void RunEndToEnd(const Options& opt, const WorkloadSpec& w, Result* result) {
  if (w.serving) {
    RunServing(opt, w, result);
  } else {
    RunTraining(opt, w, result);
  }
}

}  // namespace perfbench
